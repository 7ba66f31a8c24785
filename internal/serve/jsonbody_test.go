package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/record"
)

// oracleDecode is how /match decoded a JSON body before it had a decoder
// of its own, and the reference decodeMatchRequest is held to:
// json.Decoder into a MatchRequest, then the request rules of toPairs.
func oracleDecode(body []byte, maxPairs int) ([]record.Pair, int, int) {
	var req MatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, 0, http.StatusBadRequest
	}
	pairs, err := req.toPairs(maxPairs)
	if err != nil {
		return nil, 0, rejectStatus(err)
	}
	return pairs, req.DeadlineMs, http.StatusOK
}

// toPairs is the request rules as the reflection decoder applied them.
func (r *MatchRequest) toPairs(maxPairs int) ([]record.Pair, error) {
	single := len(r.Left) > 0 || len(r.Right) > 0
	if single && len(r.Pairs) > 0 {
		return nil, errors.New("set either left/right or pairs, not both")
	}
	if single {
		if len(r.Left) == 0 || len(r.Right) == 0 {
			return nil, errors.New("both left and right are required")
		}
		return []record.Pair{{
			Left:  record.Record{Values: r.Left},
			Right: record.Record{Values: r.Right},
		}}, nil
	}
	if len(r.Pairs) == 0 {
		return nil, errNoPairs
	}
	if len(r.Pairs) > maxPairs {
		return nil, ErrTooLarge
	}
	pairs := make([]record.Pair, 0, len(r.Pairs))
	for i, p := range r.Pairs {
		if len(p.Left) == 0 || len(p.Right) == 0 {
			return nil, fmt.Errorf("pair %d: both left and right are required", i)
		}
		pairs = append(pairs, record.Pair{
			Left:  record.Record{ID: p.LeftID, Values: p.Left},
			Right: record.Record{ID: p.RightID, Values: p.Right},
		})
	}
	return pairs, nil
}

// repeatedKeys reports whether any object of body's first JSON value
// has two keys that select the same field (equal under case folding),
// and whether the top-level object repeats "pairs".
func repeatedKeys(body []byte) (any, pairs bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return any, pairs
		}
		top := len(stack) - 1
		if key, ok := tok.(string); ok && top >= 0 && stack[top].wantKey {
			for _, k := range stack[top].keys {
				if strings.EqualFold(k, key) {
					any = true
					if top == 0 && strings.EqualFold(key, "pairs") {
						pairs = true
					}
				}
			}
			stack[top].keys = append(stack[top].keys, key)
			stack[top].wantKey = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:top]
			top--
		}
		if top < 0 {
			return any, pairs
		}
		if stack[top].object {
			stack[top].wantKey = true
		}
	}
}

// FuzzDecodeMatchRequest holds decodeMatchRequest to the reflection
// decoder: the same status for every body, and the same pairs and
// deadline_ms for every accepted body whose objects repeat no key. A
// repeated "pairs" is exempt from the status check too: encoding/json
// decodes the later array into the objects it already filled, so they
// keep sides the later array does not set, and decodeMatchRequest is
// last-wins instead.
func FuzzDecodeMatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"left":["a"],"right":["b"]}`,
		`{"pairs":[{"left":["a","b"],"right":["c"],"left_id":"L1","right_id":"R1"}],"deadline_ms":50}`,
		// every escape, a surrogate pair, lone and mismatched surrogates
		`{"left":["\" \\ \/ \b \f \n \r \t & é   \u0000"],"right":["😀"]}`,
		`{"left":["\ud83d","\ude00x","\ud83dA","\udc00😀","😀"],"right":["r&b"]}`,
		`{"left":["\u12"],"right":["b"]}`,
		`{"left":["\x"],"right":["b"]}`,
		"{\"left\":[\"a\x01\"],\"right\":[\"b\"]}",
		// raw invalid UTF-8, a raw surrogate and a raw U+FFFD
		"{\"left\":[\"\xff\xfe a \xc3\"],\"right\":[\"\xed\xa0\x80 \xef\xbf\xbd \xe2\x82\"]}",
		"{\"l\xffeft\":[\"a\"],\"left\":[\"b\"],\"right\":[\"c\"]}",
		// case-variant and folded keys
		`{"PAIRS":[{"Left":["a"],"RIGHT":["b"],"Left_ID":"x"}]}`,
		`{"pairſ":[{"left":["a"],"right":["b"]}]}`,
		`{"left":["a"],"right":["b"],"DEADLINE_MS":7}`,
		`{"rıght":["a"],"left":["b"]}`,
		// unknown fields, nested; null arrays and null elements
		`{"x":{"y":[1,2.5e-3,true,false,null,{"z":"A"}]},"left":["a"],"right":["b"],"w":-0}`,
		`{"pairs":[{"left":["a"],"right":["b"],"extra":[[{}]]}],"more":{}}`,
		`{"left":null,"right":null,"pairs":[{"left":[null,"a"],"right":[null]}]}`,
		`{"pairs":[null]}`,
		`{"pairs":null,"left":["a"],"right":[]}`,
		`{"pairs":[{"left":["a"],"right":["b"],"left_id":null,"right_id":7}]}`,
		`{"left":["a",1],"right":["b"]}`,
		`{"left":"a","right":["b"]}`,
		// deadline_ms forms
		`{"left":["a"],"right":["b"],"deadline_ms":1e2}`,
		`{"left":["a"],"right":["b"],"deadline_ms":1.5}`,
		`{"left":["a"],"right":["b"],"deadline_ms":-3}`,
		`{"left":["a"],"right":["b"],"deadline_ms":"5"}`,
		`{"left":["a"],"right":["b"],"deadline_ms":9223372036854775808}`,
		`{"left":["a"],"right":["b"],"deadline_ms":-9223372036854775808}`,
		`{"left":["a"],"right":["b"],"deadline_ms":null}`,
		`{"left":["a"],"right":["b"],"deadline_ms":01}`,
		// trailing bytes, empty and non-object bodies, broken syntax
		`{"left":["a"],"right":["b"]} trailing {`,
		`{"left":["a"],"right":["b"]}}`,
		``,
		" \n\t",
		`[]`,
		`null`,
		`nullx`,
		`"s"`,
		`{"left":["a"],"right":["b"],}`,
		`{"left":["a",],"right":["b"]}`,
		`{"left" ["a"]}`,
		`{"left":["a"]`,
		`{"left":["a"],"right":["b"]`,
		// request rules
		`{}`,
		`{"pairs":[]}`,
		`{"left":["a"]}`,
		`{"left":["a"],"right":["b"],"pairs":[{"left":["a"],"right":["b"]}]}`,
		`{"pairs":[{"left":["a"],"right":["b"]},{"left":["a"]}]}`,
		// MaxPairs+1 pairs, the 3rd lacking right: the count is checked first
		`{"pairs":[{"left":["a"],"right":["b"]},{"left":["a"],"right":["b"]},{"left":["a"]},{"left":["a"],"right":["b"]},{"left":["a"],"right":["b"]}]}`,
		// repeated keys
		`{"left":["a","b"],"left":["c"],"right":["d"],"right":[]}`,
		`{"pairs":[{"left":["a"],"right":["b"]}],"pairs":[{"left":["c"]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeMatchRequestDepth holds the decoder to encoding/json's
// nesting limit, with bodies too large to seed the fuzzer with.
func TestDecodeMatchRequestDepth(t *testing.T) {
	for _, depth := range []int{maxJSONDepth - 1, maxJSONDepth, maxJSONDepth + 1} {
		checkDecode(t, []byte(`{"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`,"left":["a"],"right":["b"]}`))
		checkDecode(t, []byte(`{"left":["a"],"right":["b"],"x":`+strings.Repeat(`{"y":`, depth)+"0"+strings.Repeat("}", depth)+"}"))
	}
}

// checkDecode compares decodeMatchRequest with oracleDecode on body,
// under a MaxPairs of 4.
func checkDecode(t *testing.T, body []byte) {
	const maxPairs = 4
	wantPairs, wantDeadline, wantStatus := oracleDecode(body, maxPairs)
	pairs, deadline, err := decodeMatchRequest(body, maxPairs)
	status := http.StatusOK
	if err != nil {
		status = rejectStatus(err)
	}
	anyRepeat, pairsRepeat := repeatedKeys(body)
	if status != wantStatus && !pairsRepeat {
		t.Fatalf("%q: status %d (%v), want %d", body, status, err, wantStatus)
	}
	if anyRepeat || status != http.StatusOK || wantStatus != http.StatusOK {
		return
	}
	if deadline != wantDeadline || !reflect.DeepEqual(pairs, wantPairs) {
		t.Fatalf("%q: decoded %q deadline %d, want %q deadline %d", body, pairs, deadline, wantPairs, wantDeadline)
	}
	for _, p := range pairs {
		for _, v := range append(append([]string(nil), p.Left.Values...), p.Right.Values...) {
			if aliases(body, v) {
				t.Fatalf("%q: value %q aliases the body", body, v)
			}
		}
	}
}

// aliases reports whether v's bytes lie inside body's array.
func aliases(body []byte, v string) bool {
	if len(body) == 0 || len(v) == 0 {
		return false
	}
	b, p := uintptr(unsafe.Pointer(unsafe.SliceData(body))), uintptr(unsafe.Pointer(unsafe.StringData(v)))
	return b <= p && p < b+uintptr(len(body))
}
