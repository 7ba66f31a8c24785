package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
)

// The /match surface of a replica (serve.Server.Handler) and of the fleet
// front (Front.Handler) must be indistinguishable to a client. Every case
// below is sent to both handlers and must come back with the same status,
// Content-Type and Retry-After and the same reply shape; successes must
// carry identical predictions and cached flags.

// gatedMatcher matches on equal first values and, while release is
// non-nil, parks every Predict until it closes — a worker held on demand.
type gatedMatcher struct {
	entered chan struct{} // one signal per Predict entry
	release chan struct{}
}

func (g *gatedMatcher) Name() string                            { return "Gated" }
func (g *gatedMatcher) ParamsMillions() float64                 { return 0 }
func (g *gatedMatcher) Train(_ []*record.Dataset, _ *stats.RNG) {}
func (g *gatedMatcher) Predict(task matchers.Task) []bool {
	if g.release != nil {
		g.entered <- struct{}{}
		<-g.release
	}
	out := make([]bool, len(task.Pairs))
	for i, p := range task.Pairs {
		out[i] = p.Left.Values[0] == p.Right.Values[0]
	}
	return out
}

// edges is one replica and one front over three more replicas of the same
// matcher and configuration.
type edges struct {
	replica, front http.Handler
	servers        []*serve.Server // the lone replica first, then the fleet's three
}

func newEdges(t *testing.T, m matchers.Matcher, scfg serve.Config) edges {
	t.Helper()
	solo, err := serve.New(m, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(solo.Shutdown)
	f, reps := inprocFleet(t, m, 3, scfg, Config{
		MatcherName: scfg.MatcherName, MaxPairsPerRequest: scfg.MaxPairsPerRequest, HedgeDisabled: true,
	})
	return edges{replica: solo.Handler(), front: f.Handler(), servers: append([]*serve.Server{solo}, reps...)}
}

// reply is what a client can observe of one /match exchange.
type reply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

func send(h http.Handler, method, contentType string, body io.Reader) reply {
	req := httptest.NewRequest(method, "/match", body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"), rec.Body.Bytes()}
}

// answer is a success reply reduced to what both codecs carry.
type answer struct{ preds, cached []bool }

// check asserts one reply against the expected status and the codec's
// reply shape, and returns the decisions of a success.
func (r reply) check(t *testing.T, who string, wireCodec bool, wantStatus int) answer {
	t.Helper()
	if r.status != wantStatus {
		t.Fatalf("%s: status %d, want %d (body %q)", who, r.status, wantStatus, r.body)
	}
	if (r.retryAfter != "") != (wantStatus == http.StatusTooManyRequests) {
		t.Fatalf("%s: status %d with Retry-After %q", who, r.status, r.retryAfter)
	}
	if !wireCodec {
		if r.contentType != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", who, r.contentType)
		}
		if wantStatus != http.StatusOK {
			var e struct{ Error string }
			if err := json.Unmarshal(r.body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s: error body %q is not a JSON error string (%v)", who, r.body, err)
			}
			return answer{}
		}
		var mr serve.MatchResponse
		if err := json.Unmarshal(r.body, &mr); err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		return answer{mr.Predictions, mr.Cached}
	}
	if r.contentType != wire.ContentType {
		t.Fatalf("%s: Content-Type %q, want %s", who, r.contentType, wire.ContentType)
	}
	if wantStatus != http.StatusOK {
		typ, payload, err := wire.ParseFrame(r.body)
		if err != nil || typ != wire.TErr {
			t.Fatalf("%s: error body is not a TErr frame (type %d, %v)", who, typ, err)
		}
		we, err := wire.DecodeError(payload)
		if err != nil || we.Code != wantStatus || we.Msg == "" {
			t.Fatalf("%s: TErr %+v (%v), want code %d and a message", who, we, err, wantStatus)
		}
		return answer{}
	}
	var wr wire.Response
	if err := serve.ParseWireResponse(r.body, &wr); err != nil {
		t.Fatalf("%s: %v", who, err)
	}
	return answer{wr.Preds, wr.Cached}
}

// both sends one request to the replica and to the front, checks each
// against wantStatus, requires the two replies to agree, and returns the
// shared answer.
func (e edges) both(t *testing.T, method, contentType string, body func() io.Reader, wantStatus int) answer {
	t.Helper()
	wireCodec := contentType == wire.ContentType
	a := send(e.replica, method, contentType, body()).check(t, "replica", wireCodec, wantStatus)
	b := send(e.front, method, contentType, body()).check(t, "front", wireCodec, wantStatus)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("replica answered %v, front %v", a, b)
	}
	return a
}

func bytesBody(b []byte) func() io.Reader { return func() io.Reader { return bytes.NewReader(b) } }
func jsonBody(s string) func() io.Reader  { return func() io.Reader { return strings.NewReader(s) } }

func onePair(l, r string) record.Pair {
	return record.Pair{Left: record.Record{Values: []string{l}}, Right: record.Record{Values: []string{r}}}
}

func TestMatchEdgeConformance(t *testing.T) {
	const maxPairs = 128
	valid := wire.AppendRequest(nil, []record.Pair{onePair("a", "a")}, 0)
	oversizeFrame := binary.AppendUvarint([]byte{'E', 'W', wire.Version, wire.TReq}, wire.MaxPayload+1)
	wrongType := append([]byte(nil), valid...)
	wrongType[3] = wire.TResp
	tooMany := make([]record.Pair, maxPairs+1)
	for i := range tooMany {
		tooMany[i] = onePair("a", "a")
	}
	tooManyJSON, err := json.Marshal(serve.MatchRequest{Pairs: make([]serve.PairJSON, maxPairs+1)})
	if err != nil {
		t.Fatal(err)
	}
	// One value past the largest body either codec reads, streamed so the
	// test never holds it.
	oversizeJSON := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"left":["`),
			io.LimitReader(zeros{}, wire.MaxPayload+64), strings.NewReader(`"],"right":["b"]}`))
	}

	cases := []struct {
		name        string
		method      string
		contentType string
		body        func() io.Reader
		want        int
	}{
		{"GET", http.MethodGet, "", jsonBody(""), http.StatusMethodNotAllowed},
		{"malformed JSON", http.MethodPost, "application/json", jsonBody(`{"left": [`), http.StatusBadRequest},
		{"left without right", http.MethodPost, "application/json", jsonBody(`{"left":["a"]}`), http.StatusBadRequest},
		{"left and pairs", http.MethodPost, "application/json",
			jsonBody(`{"left":["a"],"right":["a"],"pairs":[{"left":["a"],"right":["a"]}]}`), http.StatusBadRequest},
		{"empty pairs", http.MethodPost, "application/json", jsonBody(`{"pairs":[]}`), http.StatusBadRequest},
		{"oversize JSON", http.MethodPost, "application/json", oversizeJSON, http.StatusRequestEntityTooLarge},
		{"too many pairs JSON", http.MethodPost, "application/json", bytesBody(tooManyJSON), http.StatusRequestEntityTooLarge},
		{"truncated frame", http.MethodPost, wire.ContentType, bytesBody(valid[:len(valid)-3]), http.StatusBadRequest},
		{"trailing bytes", http.MethodPost, wire.ContentType, bytesBody(append(append([]byte(nil), valid...), 0)), http.StatusBadRequest},
		{"wrong frame type", http.MethodPost, wire.ContentType, bytesBody(wrongType), http.StatusBadRequest},
		{"empty frame", http.MethodPost, wire.ContentType, bytesBody(wire.AppendRequest(nil, nil, 0)), http.StatusBadRequest},
		{"oversize frame", http.MethodPost, wire.ContentType, bytesBody(oversizeFrame), http.StatusRequestEntityTooLarge},
		{"too many pairs wire", http.MethodPost, wire.ContentType, bytesBody(wire.AppendRequest(nil, tooMany, 0)), http.StatusRequestEntityTooLarge},
	}
	e := newEdges(t, &gatedMatcher{}, serve.Config{MatcherName: "stringsim", CacheCapacity: 1 << 10, MaxPairsPerRequest: maxPairs})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e.both(t, tc.method, tc.contentType, tc.body, tc.want)
		})
	}
	// Refusals are made at the edge: none of the above may have been
	// admitted anywhere.
	for i, srv := range e.servers {
		if n := srv.Stats().Requests; n != 0 {
			t.Fatalf("server %d admitted %d of the refused requests", i, n)
		}
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestMatchEdgeConformanceSuccess sends the same 64 pairs as JSON and
// then as a frame: both handlers answer the offline predictions, scored
// the first time and all cached the second.
func TestMatchEdgeConformanceSuccess(t *testing.T) {
	pairs := abtPairs(t, 64)
	jreq := serve.MatchRequest{Pairs: make([]serve.PairJSON, len(pairs))}
	for i := range pairs {
		jreq.Pairs[i] = serve.PairJSON{Left: pairs[i].Left.Values, Right: pairs[i].Right.Values}
	}
	jbody, err := json.Marshal(jreq)
	if err != nil {
		t.Fatal(err)
	}
	m := matchers.NewStringSim()
	offline := m.Predict(matchers.Task{Pairs: pairs})
	e := newEdges(t, m, serve.Config{MatcherName: "stringsim", CacheCapacity: 1 << 10})

	first := e.both(t, http.MethodPost, "application/json", bytesBody(jbody), http.StatusOK)
	second := e.both(t, http.MethodPost, wire.ContentType, bytesBody(wire.AppendRequest(nil, pairs, 0)), http.StatusOK)
	for i := range pairs {
		if first.preds[i] != offline[i] || second.preds[i] != offline[i] {
			t.Fatalf("pair %d: JSON %v, wire %v, offline %v", i, first.preds[i], second.preds[i], offline[i])
		}
		if first.cached[i] || !second.cached[i] {
			t.Fatalf("pair %d: cached %v then %v, want false then true", i, first.cached[i], second.cached[i])
		}
	}
}

// holdWorkers parks every server's single worker inside the gated matcher
// and returns once all are held.
func holdWorkers(t *testing.T, g *gatedMatcher, servers []*serve.Server) {
	t.Helper()
	for i, srv := range servers {
		srv := srv
		blocker := []record.Pair{onePair(fmt.Sprintf("blocker-%d", i), "x")}
		go func() { _, _ = srv.Submit(context.Background(), blocker) }()
		<-g.entered
	}
}

// TestMatchEdgeConformanceAdmission covers the rejections only a busy or
// stopping service produces: a deadline that expires while every worker
// is held (503), a full queue behind it (429 with Retry-After), and a
// draining service (503) — for the front, with every replica in that
// state. The miss pairs are fresh each time, so nothing is answered from
// a cache.
func TestMatchEdgeConformanceAdmission(t *testing.T) {
	g := &gatedMatcher{entered: make(chan struct{}), release: make(chan struct{})}
	e := newEdges(t, g, serve.Config{MatcherName: "stringsim", Workers: 1, QueueDepth: 2})
	holdWorkers(t, g, e.servers)

	codecs := []struct {
		name, contentType string
		body              func(tag string, deadlineMs int) func() io.Reader
	}{
		{"json", "application/json", func(tag string, deadlineMs int) func() io.Reader {
			return jsonBody(fmt.Sprintf(`{"left":[%q],"right":["x"],"deadline_ms":%d}`, tag, deadlineMs))
		}},
		{"wire", wire.ContentType, func(tag string, deadlineMs int) func() io.Reader {
			return bytesBody(wire.AppendRequest(nil, []record.Pair{onePair(tag, "x")}, deadlineMs))
		}},
	}
	// Each expired request stays queued behind the held worker: after one
	// per codec every queue (depth 2) is full — the front's pair lands on
	// one replica per request, so fill the other replicas' queues too.
	for _, c := range codecs {
		t.Run("deadline/"+c.name, func(t *testing.T) {
			e.both(t, http.MethodPost, c.contentType, c.body("deadline-"+c.name, 20), http.StatusServiceUnavailable)
		})
	}
	for _, srv := range e.servers {
		for srv.QueueDepth() < 2 {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_, _ = srv.Submit(ctx, []record.Pair{onePair("filler", "x")})
			cancel()
		}
	}
	for _, c := range codecs {
		t.Run("queue full/"+c.name, func(t *testing.T) {
			e.both(t, http.MethodPost, c.contentType, c.body("shed-"+c.name, 0), http.StatusTooManyRequests)
		})
	}

	close(g.release)
	for _, srv := range e.servers {
		srv.Shutdown()
	}
	for _, c := range codecs {
		t.Run("draining/"+c.name, func(t *testing.T) {
			e.both(t, http.MethodPost, c.contentType, c.body("drain-"+c.name, 0), http.StatusServiceUnavailable)
		})
	}
}
