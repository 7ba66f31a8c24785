package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/record"
	"repro/internal/snap"
)

func testPairs() []record.Pair {
	return []record.Pair{
		{
			Left:  record.Record{ID: "l1", Values: []string{"ipad 4th gen", "apple", "399"}},
			Right: record.Record{ID: "r1", Values: []string{"apple ipad 4", "apple", "399.00"}},
		},
		{
			Left:  record.Record{Values: []string{"", "empty id and value"}},
			Right: record.Record{ID: "r2", Values: nil},
		},
		{
			Left:  record.Record{ID: "l3", Values: []string{"unicode éè—", "x"}},
			Right: record.Record{ID: "r3", Values: []string{"y"}},
		},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	pairs := testPairs()
	frame := AppendRequest(nil, pairs, 250)

	typ, payload, err := ParseFrame(frame)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if typ != TReq {
		t.Fatalf("type = %d, want TReq", typ)
	}
	var req Request
	if err := req.Decode(payload); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if req.DeadlineMs != 250 {
		t.Fatalf("DeadlineMs = %d, want 250", req.DeadlineMs)
	}
	if len(req.Pairs) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(req.Pairs), len(pairs))
	}
	for i, v := range req.Pairs {
		if !bytes.Equal(v.Raw, AppendPair(nil, pairs[i])) {
			t.Fatalf("pair %d: Raw %q, want its AppendPair encoding", i, v.Raw)
		}
		got := v.Materialize()
		want := pairs[i]
		// Materialize returns nil value slices as empty; normalise.
		if got.Left.ID != want.Left.ID || got.Right.ID != want.Right.ID {
			t.Fatalf("pair %d IDs = %q/%q, want %q/%q", i, got.Left.ID, got.Right.ID, want.Left.ID, want.Right.ID)
		}
		if len(got.Left.Values) != len(want.Left.Values) || len(got.Right.Values) != len(want.Right.Values) {
			t.Fatalf("pair %d value counts differ", i)
		}
		for j := range want.Left.Values {
			if got.Left.Values[j] != want.Left.Values[j] {
				t.Fatalf("pair %d left[%d] = %q, want %q", i, j, got.Left.Values[j], want.Left.Values[j])
			}
		}
		for j := range want.Right.Values {
			if got.Right.Values[j] != want.Right.Values[j] {
				t.Fatalf("pair %d right[%d] = %q, want %q", i, j, got.Right.Values[j], want.Right.Values[j])
			}
		}
	}
}

// TestRequestReuse decodes two different payloads through one Request and
// checks the second decode is not polluted by the first.
func TestRequestReuse(t *testing.T) {
	var req Request
	_, p1, _ := ParseFrame(AppendRequest(nil, testPairs(), 0))
	if err := req.Decode(p1); err != nil {
		t.Fatalf("first Decode: %v", err)
	}
	small := []record.Pair{{
		Left:  record.Record{ID: "a", Values: []string{"v"}},
		Right: record.Record{ID: "b", Values: []string{"w"}},
	}}
	_, p2, _ := ParseFrame(AppendRequest(nil, small, 7))
	if err := req.Decode(p2); err != nil {
		t.Fatalf("second Decode: %v", err)
	}
	if len(req.Pairs) != 1 || req.DeadlineMs != 7 {
		t.Fatalf("reused decode: %d pairs deadline %d", len(req.Pairs), req.DeadlineMs)
	}
	got := req.Pairs[0].Materialize()
	if got.Left.ID != "a" || got.Left.Values[0] != "v" || got.Right.Values[0] != "w" {
		t.Fatalf("reused decode produced %+v", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 65} {
		preds := make([]bool, n)
		cached := make([]bool, n)
		for i := range preds {
			preds[i] = i%3 == 0
			cached[i] = i%2 == 0
		}
		e := snap.NewEnc()
		AppendResponsePayload(e, preds, cached, 0.125, 42, 987654)
		frame := AppendFrame(nil, TResp, e.Bytes())
		typ, payload, err := ParseFrame(frame)
		if err != nil || typ != TResp {
			t.Fatalf("n=%d: ParseFrame type %d err %v", n, typ, err)
		}
		var resp Response
		if err := resp.Decode(payload); err != nil {
			t.Fatalf("n=%d: Decode: %v", n, err)
		}
		if len(resp.Preds) != n || len(resp.Cached) != n {
			t.Fatalf("n=%d: decoded lengths %d/%d", n, len(resp.Preds), len(resp.Cached))
		}
		for i := range preds {
			if resp.Preds[i] != preds[i] || resp.Cached[i] != cached[i] {
				t.Fatalf("n=%d: bit %d mismatch", n, i)
			}
		}
		if resp.CostUSD != 0.125 || resp.Tokens != 42 || resp.ElapsedUs != 987654 {
			t.Fatalf("n=%d: scalars %v %d %d", n, resp.CostUSD, resp.Tokens, resp.ElapsedUs)
		}
	}
}

func TestResponseNaNCost(t *testing.T) {
	e := snap.NewEnc()
	AppendResponsePayload(e, []bool{true}, []bool{false}, math.NaN(), 0, 0)
	var resp Response
	if err := resp.Decode(e.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !math.IsNaN(resp.CostUSD) {
		t.Fatalf("CostUSD = %v, want NaN preserved", resp.CostUSD)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := snap.NewEnc()
	AppendErrorPayload(e, 429, "queue full")
	frame := AppendFrame(nil, TErr, e.Bytes())
	typ, payload, err := ParseFrame(frame)
	if err != nil || typ != TErr {
		t.Fatalf("ParseFrame: type %d err %v", typ, err)
	}
	we, err := DecodeError(payload)
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if we.Code != 429 || we.Msg != "queue full" {
		t.Fatalf("decoded %+v", we)
	}
	if we.Error() == "" {
		t.Fatal("Error() empty")
	}
}

func TestParseFrameFailsClosed(t *testing.T) {
	valid := AppendRequest(nil, testPairs(), 0)

	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:3], ErrTruncated},
		{"bad magic", append([]byte("XX"), valid[2:]...), ErrBadMagic},
		{"bad version", func() []byte {
			b := append([]byte(nil), valid...)
			b[2] = 99
			return b
		}(), ErrBadVersion},
		{"bad type", func() []byte {
			b := append([]byte(nil), valid...)
			b[3] = 42
			return b
		}(), ErrBadType},
		{"truncated payload", valid[:len(valid)-1], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xFF), ErrTrailing},
		{"oversize length", func() []byte {
			// Header declaring MaxPayload+1 with no payload: the length
			// check must fire before any payload read.
			b := []byte{'E', 'W', Version, TReq}
			b = append(b, 0x81, 0x80, 0x80, 0x08) // uvarint(1<<24 + 1)
			return b
		}(), ErrOversize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseFrame(tc.buf)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestRequestDecodeCorrupt(t *testing.T) {
	t.Run("huge pair count", func(t *testing.T) {
		e := snap.NewEnc()
		e.Uvarint(0)       // deadline
		e.Uvarint(1 << 40) // npairs far beyond payload
		var req Request
		if err := req.Decode(e.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("huge value count", func(t *testing.T) {
		e := snap.NewEnc()
		e.Uvarint(0) // deadline
		e.Uvarint(1) // one pair
		e.Str("id")
		e.Uvarint(1 << 40) // value count beyond payload
		var req Request
		if err := req.Decode(e.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing payload bytes", func(t *testing.T) {
		e := snap.NewEnc()
		e.Uvarint(0)
		e.Uvarint(0)
		e.Byte(0xAB)
		var req Request
		if err := req.Decode(e.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated mid-pair", func(t *testing.T) {
		frame := AppendRequest(nil, testPairs(), 0)
		_, payload, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		var req Request
		if err := req.Decode(payload[:len(payload)-2]); err == nil {
			t.Fatal("truncated payload decoded cleanly")
		}
	})
}

// FuzzRequestDecode drives ParseFrame + Request.Decode with arbitrary
// bytes: any input must produce a typed error or a valid decode — never a
// panic, never unbounded allocation. A clean decode must also survive the
// relay: re-framing any ordered subset of its PairView.Raw spans decodes
// to the same IDs and values, which is what the fleet front rests on.
func FuzzRequestDecode(f *testing.F) {
	valid := AppendRequest(nil, testPairs(), 100)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{'E', 'W', Version, TReq, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ParseFrame(data)
		if err != nil || typ != TReq {
			return
		}
		var req Request
		if err := req.Decode(payload); err != nil {
			return
		}
		// A clean decode must yield self-consistent views.
		for _, v := range req.Pairs {
			_ = v.Materialize()
		}
		// The subset is a pure function of the input: pair i is kept when
		// bit i%8 of byte i%len(data) is set.
		buf := make([]byte, RequestHeaderRoom)
		var kept []int
		for i, v := range req.Pairs {
			if data[i%len(data)]>>(i%8)&1 == 1 {
				buf = append(buf, v.Raw...)
				kept = append(kept, i)
			}
		}
		typ, payload, err = ParseFrame(FrameRequest(buf, req.DeadlineMs, len(kept)))
		if err != nil || typ != TReq {
			t.Fatalf("re-framed subset: type %d, %v", typ, err)
		}
		var sub Request
		if err := sub.Decode(payload); err != nil {
			t.Fatalf("re-framed subset does not decode: %v", err)
		}
		if sub.DeadlineMs != req.DeadlineMs || len(sub.Pairs) != len(kept) {
			t.Fatalf("re-framed subset: deadline %d, %d pairs; want %d, %d", sub.DeadlineMs, len(sub.Pairs), req.DeadlineMs, len(kept))
		}
		for j, i := range kept {
			if !reflect.DeepEqual(sub.Pairs[j].Materialize(), req.Pairs[i].Materialize()) {
				t.Fatalf("re-framed pair %d differs from pair %d", j, i)
			}
		}
	})
}

// FuzzResponseDecode drives Response.Decode and DecodeError with
// arbitrary payloads.
func FuzzResponseDecode(f *testing.F) {
	e := snap.NewEnc()
	AppendResponsePayload(e, []bool{true, false, true}, []bool{false, false, true}, 0.5, 9, 1234)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := resp.Decode(data); err == nil {
			if len(resp.Preds) != len(resp.Cached) {
				t.Fatalf("clean decode with mismatched bitsets %d/%d", len(resp.Preds), len(resp.Cached))
			}
		}
		_, _ = DecodeError(data)
	})
}

// TestAppendFrameReusesDst checks the response path's buffer contract:
// appending into a cleared buffer with capacity must not allocate a new
// backing array.
func TestAppendFrameReusesDst(t *testing.T) {
	payload := bytes.Repeat([]byte{0x42}, 64)
	dst := make([]byte, 0, 256)
	out := AppendFrame(dst, TResp, payload)
	if &out[0] != &dst[:1][0] {
		t.Fatal("AppendFrame reallocated despite sufficient capacity")
	}
}
