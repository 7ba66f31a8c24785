package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/snap"
	"repro/internal/wire"
)

// PairJSON is one candidate pair on the wire: the two records' attribute
// values in schema order. Record IDs are optional and never shown to the
// matcher (cross-dataset restriction 2 applies online too).
type PairJSON struct {
	LeftID  string   `json:"left_id,omitempty"`
	RightID string   `json:"right_id,omitempty"`
	Left    []string `json:"left"`
	Right   []string `json:"right"`
}

// MatchRequest is the /match request body. Either Left/Right (one pair)
// or Pairs (a batch) must be set.
type MatchRequest struct {
	Left  []string   `json:"left,omitempty"`
	Right []string   `json:"right,omitempty"`
	Pairs []PairJSON `json:"pairs,omitempty"`
	// DeadlineMs bounds this request's total latency; past it the request
	// fails with 503 instead of queueing forever. Zero uses the server's
	// default deadline, if any.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// MatchResponse is the /match success body.
type MatchResponse struct {
	Matcher     string  `json:"matcher"`
	Predictions []bool  `json:"predictions"`
	Cached      []bool  `json:"cached"`
	CostUSD     float64 `json:"cost_usd"`
	Tokens      int     `json:"tokens,omitempty"`
	ElapsedMs   float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP routes: POST /match, GET /healthz,
// GET /stats, GET /slo (objective states; 404 when no SLOs are
// configured), GET /metrics (Prometheus text), GET /debug/vars (expvar).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/match", &MatchEdge{
		Matcher:   s.matcher.Name(),
		MaxPairs:  s.cfg.MaxPairsPerRequest,
		Tracer:    s.cfg.Tracer,
		Submit:    s.submit,
		ServeWire: s.ServeWire,
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/slo", SLOHandler(s.matcher.Name(), s.sloEngine, s.metrics.sloBreaches.Load))
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// SubmitFunc answers materialised pairs under the client's deadline_ms
// (0 = none given): the shape of (*fleet.Front).Submit and of the
// server's own record codec.
type SubmitFunc func(ctx context.Context, pairs []record.Pair, deadlineMs int) (*MatchResult, error)

// MatchEdge is the one POST /match HTTP surface, mounted by a replica
// (Server.Handler) and by the fleet front alike, so the two cannot drift:
// method check, content negotiation, bounded body reads, the JSON and
// wire reply and error writers, Retry-After. What answers the decoded
// request is the mounting service's own.
type MatchEdge struct {
	// Matcher is echoed in JSON replies.
	Matcher string
	// MaxPairs bounds a JSON batch before any pair is materialised.
	MaxPairs int
	// Tracer, when non-nil, records the JSON "respond" span.
	Tracer *obs.Tracer
	// Submit answers the pairs of a JSON body.
	Submit SubmitFunc
	// ServeWire answers one request frame; see Server.ServeWire.
	ServeWire func(ctx context.Context, body, dst []byte) (int, []byte)
}

func (e *MatchEdge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Content-type negotiation: binary-protocol clients share the endpoint
	// with JSON clients; the body's media type selects the parser and the
	// response format.
	if r.Header.Get("Content-Type") == wire.ContentType {
		e.serveWire(w, r)
		return
	}
	var req MatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Sprintf("bad request body: %v", err))
		return
	}
	pairs, err := req.toPairs(e.MaxPairs)
	if err != nil {
		writeError(w, rejectStatus(err), err.Error())
		return
	}
	start := time.Now()
	res, err := e.Submit(r.Context(), pairs, req.DeadlineMs)
	if err != nil {
		writeError(w, StatusFor(err), err.Error())
		return
	}
	rspan := e.Tracer.Root("respond")
	rspan.SetInt("pairs", int64(len(res.Preds)))
	WriteJSON(w, http.StatusOK, MatchResponse{
		Matcher:     e.Matcher,
		Predictions: res.Preds,
		Cached:      res.Cached,
		CostUSD:     res.CostUSD,
		Tokens:      res.Tokens,
		ElapsedMs:   float64(time.Since(start).Microseconds()) / 1000,
	})
	rspan.End()
}

// serveWire answers a binary-framed /match request. Body and response
// buffers come from a pool, so the edge adds no per-request garbage on
// top of what net/http itself allocates; the protocol work happens in
// ServeWire.
func (e *MatchEdge) serveWire(w http.ResponseWriter, r *http.Request) {
	bodyp := bodyBufPool.Get().(*[]byte)
	outp := bodyBufPool.Get().(*[]byte)
	defer func() {
		bodyBufPool.Put(bodyp)
		bodyBufPool.Put(outp)
	}()
	body, rerr := readAllInto((*bodyp)[:0], r.Body)
	*bodyp = body
	var status int
	var out []byte
	if rerr != nil {
		var enc snap.Enc
		status, out = wireError((*outp)[:0], &enc, rejectStatus(rerr), "unreadable body: "+rerr.Error())
	} else {
		status, out = e.ServeWire(r.Context(), body, (*outp)[:0])
	}
	*outp = out
	writeBody(w, wire.ContentType, status, out)
}

// bodyBufPool recycles request-body and response-frame buffers for the
// binary protocol edge.
var bodyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// toPairs validates the request and converts it to record pairs, refusing
// a batch over maxPairs (ErrTooLarge) before any pair is converted.
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admit.RLock()
	draining := s.draining
	s.admit.RUnlock()
	if draining {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"matcher":    s.matcher.Name(),
		"semantics":  s.semantics.String(),
		"uptime_sec": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

// rejectStatus is the status of a request refused before it reached a
// pipeline: 413 for a frame or batch past its bound, and 400 for
// everything else, which is malformed. (It runs on the zero-allocation
// error path, so no errors.As here.)
func rejectStatus(err error) int {
	if errors.Is(err, ErrTooLarge) || errors.Is(err, wire.ErrOversize) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// StatusFor maps pipeline errors onto HTTP status codes: a full queue is
// retryable back-pressure (429), draining and expired deadlines are
// service-side unavailability (503), oversized requests are the client's
// fault (413). Exported so the fleet front router maps its own Submit
// errors onto the exact same statuses a single replica would return.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	// The typed backend errors subsume the serve shed signals (ErrQueueFull
	// wraps ErrOverloaded, ErrDraining wraps ErrUnavailable), so any layer
	// that sheds with them — local admission or a routed backend — maps to
	// the same status the retryable classification implies.
	case errors.Is(err, backend.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, backend.ErrUnavailable), errors.Is(err, backend.ErrDeadline):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// jsonWriter is a pooled buffer + encoder pair: the encoder writes into
// the buffer, the buffer flushes to the ResponseWriter in one call, and
// both are recycled — no json.Encoder or bytes.Buffer garbage per
// response.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// WriteJSON writes v as the indented JSON body of a status reply. It is
// the one JSON reply writer of the replica and fleet HTTP surfaces.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	jw := jsonPool.Get().(*jsonWriter)
	defer jsonPool.Put(jw)
	jw.buf.Reset()
	if err := jw.enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, "application/json", status, jw.buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorResponse{Error: msg})
}

// writeBody sends one reply of either codec; a 429 always tells the
// client when to come back.
func writeBody(w http.ResponseWriter, contentType string, status int, body []byte) {
	w.Header().Set("Content-Type", contentType)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
