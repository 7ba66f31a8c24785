package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/wire"
)

// postWire posts one binary frame to /match and returns the status and raw
// response body.
func postWire(t testing.TB, url string, frame []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/match", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeWireResp parses a TResp body.
func decodeWireResp(t testing.TB, data []byte) *wire.Response {
	t.Helper()
	typ, payload, err := wire.ParseFrame(data)
	if err != nil {
		t.Fatalf("response frame: %v", err)
	}
	if typ != wire.TResp {
		t.Fatalf("response frame type = %d, want TResp", typ)
	}
	var r wire.Response
	if err := r.Decode(payload); err != nil {
		t.Fatalf("response payload: %v", err)
	}
	return &r
}

// decodeWireErr parses a TErr body.
func decodeWireErr(t testing.TB, data []byte) *wire.Error {
	t.Helper()
	typ, payload, err := wire.ParseFrame(data)
	if err != nil {
		t.Fatalf("error frame: %v", err)
	}
	if typ != wire.TErr {
		t.Fatalf("error frame type = %d, want TErr", typ)
	}
	we, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatalf("error payload: %v", err)
	}
	return we
}

// TestWireServedBitIdenticalToOffline pins the tentpole acceptance
// criterion for the binary protocol: decisions served over wire frames are
// bit-identical to offline Predict and to the JSON path, and a replay is
// answered from the cache.
func TestWireServedBitIdenticalToOffline(t *testing.T) {
	pairs := benchmarkPairs(t, "ABT", 120)
	m := trained(t, "stringsim")
	offline := m.Predict(matchers.Task{Pairs: pairs})

	srv, err := New(m, Config{MatcherName: "stringsim", CacheCapacity: 1 << 12, MaxBatch: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	frame := wire.AppendRequest(nil, pairs, 0)
	status, body := postWire(t, hs.URL, frame)
	if status != http.StatusOK {
		t.Fatalf("wire batch: status %d", status)
	}
	resp := decodeWireResp(t, body)
	if len(resp.Preds) != len(pairs) {
		t.Fatalf("wire batch: %d preds, want %d", len(resp.Preds), len(pairs))
	}
	for i := range pairs {
		if resp.Preds[i] != offline[i] {
			t.Fatalf("wire pair %d: served %v, offline %v", i, resp.Preds[i], offline[i])
		}
	}

	// Replay over the wire: every decision now comes from the cache the
	// first pass populated, still bit-identical.
	status, body = postWire(t, hs.URL, frame)
	if status != http.StatusOK {
		t.Fatalf("wire replay: status %d", status)
	}
	replay := decodeWireResp(t, body)
	for i := range pairs {
		if replay.Preds[i] != offline[i] {
			t.Fatalf("wire replay pair %d: served %v, offline %v", i, replay.Preds[i], offline[i])
		}
		if !replay.Cached[i] {
			t.Fatalf("wire replay pair %d not cached", i)
		}
	}

	// A JSON client on the same server sees the same decisions — including
	// hits on cache entries the binary client populated.
	jstatus, jresp := postMatchJSON(t, hs.URL, MatchRequest{Pairs: toJSONPairs(pairs)})
	if jstatus != http.StatusOK {
		t.Fatalf("json after wire: status %d", jstatus)
	}
	for i := range pairs {
		if jresp.Predictions[i] != offline[i] {
			t.Fatalf("json pair %d: served %v, offline %v", i, jresp.Predictions[i], offline[i])
		}
		if !jresp.Cached[i] {
			t.Fatalf("json pair %d missed the cache the wire client warmed", i)
		}
	}
}

// TestMixedProtocolClients runs concurrent JSON and binary clients against
// one server and checks both get consistent decisions.
func TestMixedProtocolClients(t *testing.T) {
	pairs := benchmarkPairs(t, "ABT", 60)
	m := trained(t, "stringsim")
	offline := m.Predict(matchers.Task{Pairs: pairs})

	srv, err := New(m, Config{MatcherName: "stringsim", CacheCapacity: 1 << 12, MaxBatch: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				frame := wire.AppendRequest(nil, pairs[i:i+1], 0)
				status, body := postWire(t, hs.URL, frame)
				if status != http.StatusOK {
					t.Errorf("wire %d: status %d", i, status)
					return
				}
				if got := decodeWireResp(t, body); got.Preds[0] != offline[i] {
					t.Errorf("wire %d: %v, offline %v", i, got.Preds[0], offline[i])
				}
			} else {
				status, r := postMatchJSON(t, hs.URL, MatchRequest{
					Left: pairs[i].Left.Values, Right: pairs[i].Right.Values,
				})
				if status != http.StatusOK {
					t.Errorf("json %d: status %d", i, status)
					return
				}
				if r.Predictions[0] != offline[i] {
					t.Errorf("json %d: %v, offline %v", i, r.Predictions[0], offline[i])
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestWireProtocolErrors covers the negotiation edge cases: malformed,
// truncated and oversized frames must come back as TErr frames whose code
// matches the HTTP status, with JSON clients unaffected.
func TestWireProtocolErrors(t *testing.T) {
	srv, err := New(&stubMatcher{}, Config{
		MatcherName: "stub", CacheCapacity: 16, MaxPairsPerRequest: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	onePair := []record.Pair{{
		Left:  record.Record{Values: []string{"a"}},
		Right: record.Record{Values: []string{"a"}},
	}}
	valid := wire.AppendRequest(nil, onePair, 0)

	oversizeHeader := []byte{'E', 'W', wire.Version, wire.TReq}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], wire.MaxPayload+1)
	oversizeHeader = append(oversizeHeader, lenBuf[:n]...)

	fivePairs := wire.AppendRequest(nil, []record.Pair{
		onePair[0], onePair[0], onePair[0], onePair[0], onePair[0],
	}, 0)

	respAsReq := func() []byte {
		// A TResp frame sent as a request: well-formed framing, wrong type.
		b := append([]byte(nil), valid...)
		b[3] = wire.TResp
		return b
	}()

	emptyReq := wire.AppendRequest(nil, nil, 0)

	cases := []struct {
		name       string
		frame      []byte
		wantStatus int
	}{
		{"garbage", []byte("not a frame at all"), http.StatusBadRequest},
		{"truncated", valid[:len(valid)-3], http.StatusBadRequest},
		{"trailing", append(append([]byte(nil), valid...), 0x00), http.StatusBadRequest},
		{"oversize declared", oversizeHeader, http.StatusRequestEntityTooLarge},
		{"too many pairs", fivePairs, http.StatusRequestEntityTooLarge},
		{"response frame as request", respAsReq, http.StatusBadRequest},
		{"no pairs", emptyReq, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postWire(t, hs.URL, tc.frame)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d", status, tc.wantStatus)
			}
			we := decodeWireErr(t, body)
			if we.Code != tc.wantStatus {
				t.Fatalf("frame code = %d, want %d", we.Code, tc.wantStatus)
			}
			if we.Msg == "" {
				t.Fatal("error frame has empty message")
			}
		})
	}

	// A valid frame still works after all the malformed traffic, and a JSON
	// request on the same connection pool is untouched.
	status, body := postWire(t, hs.URL, valid)
	if status != http.StatusOK {
		t.Fatalf("valid frame after errors: status %d", status)
	}
	if got := decodeWireResp(t, body); len(got.Preds) != 1 || !got.Preds[0] {
		t.Fatalf("valid frame after errors: %+v", got)
	}
	jstatus, jresp := postMatchJSON(t, hs.URL, MatchRequest{Left: []string{"a"}, Right: []string{"a"}})
	if jstatus != http.StatusOK || len(jresp.Predictions) != 1 {
		t.Fatalf("json after errors: status %d, %+v", jstatus, jresp)
	}
}

// TestServeWireDrainingAnswers503 checks admission errors travel as TErr
// frames too.
func TestServeWireDrainingAnswers503(t *testing.T) {
	srv, err := New(&stubMatcher{}, Config{MatcherName: "stub", CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	frame := wire.AppendRequest(nil, []record.Pair{{
		Left:  record.Record{Values: []string{"x"}},
		Right: record.Record{Values: []string{"y"}},
	}}, 0)
	status, out := srv.ServeWire(context.Background(), frame, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if we := decodeWireErr(t, out); we.Code != http.StatusServiceUnavailable {
		t.Fatalf("frame code = %d, want 503", we.Code)
	}
}

// TestWireKeysMatchJSONKeys pins the cross-protocol cache-key identity:
// the key built from frame views (AppendViewKey, which the fleet front
// hashes onto its ring) must be byte-identical to the one built from
// materialised records and to what serving serialization renders, or the
// two protocols (and the fleet's ring) would silently stop sharing cache
// entries. It runs over a stride of every dataset's pairs. The golden
// literal pins the bytes themselves, on a pair carrying IDs (never part of
// a key), an empty value and a value that contains the separator.
func TestWireKeysMatchJSONKeys(t *testing.T) {
	var pairs []record.Pair
	for _, d := range datasets.GenerateAllParallel(eval.DatasetSeed, 2) {
		for i := 0; i < len(d.Pairs); i += 61 {
			pairs = append(pairs, d.Pairs[i].Pair)
		}
	}
	pairs = append(pairs, record.Pair{
		Left:  record.Record{ID: "l-1", Values: []string{"ipad, 4th gen", "", "399"}},
		Right: record.Record{ID: "r-9", Values: []string{"apple ipad 4"}},
	})
	const golden = "ipad, 4th gen, , 399\x1fapple ipad 4"
	frame := wire.AppendRequest(nil, pairs, 0)
	_, payload, err := wire.ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var req wire.Request
	if err := req.Decode(payload); err != nil {
		t.Fatal(err)
	}
	opts := CanonicalKeyOptions(nil)
	for i := range req.Pairs {
		want := record.SerializeRecord(pairs[i].Left, opts) + string(keySep) + record.SerializeRecord(pairs[i].Right, opts)
		if got := string(AppendViewKey(nil, &req.Pairs[i])); got != want {
			t.Fatalf("pair %d: view key %q != serialized key %q", i, got, want)
		}
		if got := string(AppendPairKey(nil, pairs[i], opts)); got != want {
			t.Fatalf("pair %d: AppendPairKey %q != serialized key %q", i, got, want)
		}
		if got := string(recordPairs(pairs).appendKey(nil, i)); got != want {
			t.Fatalf("pair %d: record key %q != serialized key %q", i, got, want)
		}
	}
	if got := string(AppendPairKey(nil, pairs[len(pairs)-1], opts)); got != golden {
		t.Fatalf("golden pair: key %q, want %q", got, golden)
	}
}
