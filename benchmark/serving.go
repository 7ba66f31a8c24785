package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
)

// servingSpec sizes one serving workload. Sizes and pass counts are
// constants on purpose: two runs are comparable only if they did the
// same work.
type servingSpec struct {
	name string
	// requests is the size of the working set the workload cycles
	// through; set-up scores every pair of it once.
	requests int
	// cacheCapacity is each replica's prediction-cache size in pairs.
	cacheCapacity int
	// replicas is 0 for one serve.Server behind its own handler, or the
	// number of in-process replicas behind a fleet.Front.
	replicas int
	// alternateJSON sends every other request as a JSON body.
	alternateJSON bool
	// cyclesPerPass is the fixed work of one timed pass: whole cycles,
	// so every pass sends the same pairs.
	cyclesPerPass int
	// passes is how many equal passes a full run times; every
	// time-based end-to-end value is the median over them.
	passes int
	// hitRatio is what the replicas' prediction caches report over the
	// timed passes: exactly, but for pairs the fleet hedged.
	hitRatio float64
}

// Prediction-cache sizes: one that holds any working set, and one a
// quarter the size of replica-miss's cycle.
const (
	hitCacheCapacity  = 65536
	missCacheCapacity = 4096
)

// A pass takes 0.7 to 1.2 s on the 2-core reference machine depending
// on the workload and on what else the host is doing, the timed passes
// of a run 18 to 28 s (runSeconds is the middle).
var servingSpecs = []servingSpec{
	{name: "replica-hit", requests: 512, cacheCapacity: hitCacheCapacity, cyclesPerPass: 32, passes: 25, hitRatio: 1},
	// 4,096 entries over 16 shards against a cycle of 16,384 distinct
	// pairs: a key is always evicted before it comes round again.
	{name: "replica-miss", requests: 256, cacheCapacity: missCacheCapacity, alternateJSON: true, cyclesPerPass: 1, passes: 25, hitRatio: 0},
	{name: "fleet-hit", requests: 512, cacheCapacity: hitCacheCapacity, replicas: 3, cyclesPerPass: 4, passes: 25, hitRatio: 1},
}

const (
	tracePasses = 5
	quickPasses = 2
	// quickRequests is every serving workload's working set under
	// -quick: still twice the small cache, so replica-miss still misses.
	quickRequests = 128
)

func (sp *servingSpec) passCount(opt options) int {
	switch {
	case opt.quick:
		return quickPasses
	case opt.trace:
		return tracePasses
	}
	return sp.passes
}

// servingState is one finished set-up: datasets generated, requests
// encoded, servers built, every working-set pair scored once.
type servingState struct {
	spec      *servingSpec
	ws        []*request
	order     []int
	served    [][]bool // last served predictions per working-set request
	handler   http.Handler
	servers   []*serve.Server
	front     *fleet.Front
	transport *inprocTransport
	next      int // requests sent so far; decides order and protocol
}

func (st *servingState) close() {
	if st.front != nil {
		st.front.Close()
	}
	for _, s := range st.servers {
		s.Shutdown()
	}
}

// newReplica builds one replica the way every serving workload runs it:
// the parameter-free stringsim matcher and one scoring worker, so the
// closed-loop client and the worker are the only two busy goroutines.
func newReplica(cacheCapacity int, tracer *obs.Tracer) (*serve.Server, error) {
	return serve.New(matchers.NewStringSim(), serve.Config{
		MatcherName:   "stringsim",
		Workers:       1,
		CacheCapacity: cacheCapacity,
		Tracer:        tracer,
	})
}

// setupServing does everything that precedes the first timed pass.
func setupServing(sp *servingSpec, seed uint64, withJSON bool) (*servingState, error) {
	st := &servingState{spec: sp}
	st.ws = workingSet(generateDatasets(), sp.requests, withJSON)
	st.order = requestOrder(seed, len(st.ws))
	st.served = make([][]bool, len(st.ws))
	for i := range st.served {
		st.served[i] = make([]bool, pairsPerRequest)
	}
	for i := 0; i < max(1, sp.replicas); i++ {
		srv, err := newReplica(sp.cacheCapacity, nil)
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
	}
	if sp.replicas == 0 {
		st.handler = st.servers[0].Handler()
	} else {
		st.transport = &inprocTransport{servers: map[string]*serve.Server{}}
		// Default front configuration; ProbeInterval 0 starts no
		// background probing.
		front, err := fleet.New(fleet.Config{MatcherName: "stringsim", Transport: st.transport})
		if err != nil {
			st.close()
			return nil, err
		}
		st.front = front
		for i, srv := range st.servers {
			name := fmt.Sprintf("r%d", i)
			st.transport.servers["inproc://"+name] = srv
			if err := front.AddReplica(name, "inproc://"+name); err != nil {
				st.close()
				return nil, err
			}
		}
		st.handler = front.Handler()
	}

	// Warm-up: one cycle in the run's own order through the run's own
	// entry point, which leaves every replica holding its own arc.
	c := newClient(st.handler)
	for range st.ws {
		if o := st.send(c, nil); !o.ok {
			st.close()
			return nil, fmt.Errorf("%s: warm-up request answered %d", sp.name, o.status)
		}
	}
	return st, nil
}

// oracle scores the working set offline, outside any server, with the
// same matcher and serialization the replicas use.
func (st *servingState) oracle() {
	m := matchers.NewStringSim()
	opts := serve.CanonicalKeyOptions(nil)
	for _, r := range st.ws {
		r.want = make([]bool, len(r.pairs))
		m.PredictBatchInto(matchers.Task{Pairs: r.pairs, Opts: opts}, r.want)
	}
}

// outcome is what one request came back with.
type outcome struct {
	status   int
	ok       bool // answered 200 with the offline predictions
	uncached int  // pairs the reply flags as scored, not served from a cache
}

// send issues the next request of the sequence and records what was
// served. With a tracer it wraps the call in a "handler" span.
func (st *servingState) send(c *client, tr *tracer) outcome {
	k := st.next
	st.next++
	i := st.order[k%len(st.order)]
	r := st.ws[i]
	useJSON := st.spec.alternateJSON && k%2 == 1
	var id int64
	if tr != nil {
		id = tr.start("handler", 0, int64(k))
		tr.cur.Store(id)
		tr.req.Store(int64(k))
	}
	c.serve(r, useJSON)
	tr.end(id)
	status, preds, cached := c.decode(useJSON)
	o := outcome{status: status}
	if status != http.StatusOK || len(preds) != len(r.pairs) {
		return o
	}
	copy(st.served[i], preds)
	o.ok = true
	for j := range preds {
		if r.want != nil && preds[j] != r.want[j] { // nil in the warm-up: the oracle has not run yet
			o.ok = false
		}
		if !cached[j] {
			o.uncached++
		}
	}
	return o
}

// measurement is what a block of timed passes yields.
type measurement struct {
	spec   *servingSpec
	passes int
	// Per pass: wall time, getrusage user+system time, and the median
	// request latency.
	wallNs, cpuNs, p50Ns []float64
	latNs                []int64 // per request, all passes
	attempted, failed    int
	uncached             int   // pairs the replies flagged as not cached
	hits, misses         int64 // the replicas' prediction caches
	hedges, failovers    int64 // the front's counters, fleet only
	mem                  memDelta
}

// measure runs n equal passes. Everything that is not sending requests
// happens between passes.
func (st *servingState) measure(c *client, n int, tr *tracer) measurement {
	sp := st.spec
	per := sp.cyclesPerPass * sp.requests
	m := measurement{spec: sp, passes: n, latNs: make([]int64, 0, n*per)}
	runtime.GC()
	h0, m0 := st.cacheStats()
	hedges0, failovers0 := st.frontCounters()
	mem0 := readMem()
	for p := 0; p < n; p++ {
		cpu0, t0 := cpuTime(), time.Now()
		for i := 0; i < per; i++ {
			r0 := time.Now()
			o := st.send(c, tr)
			m.latNs = append(m.latNs, int64(time.Since(r0)))
			if !o.ok {
				m.failed++
			}
			m.uncached += o.uncached
		}
		m.wallNs = append(m.wallNs, float64(time.Since(t0)))
		m.cpuNs = append(m.cpuNs, float64(cpuTime()-cpu0))
		pass := nsToFloats(m.latNs[p*per:])
		sort.Float64s(pass)
		m.p50Ns = append(m.p50Ns, percentile(pass, 0.5))
	}
	m.mem = readMem().sub(mem0)
	h1, m1 := st.cacheStats()
	m.hits, m.misses = h1-h0, m1-m0
	hedges1, failovers1 := st.frontCounters()
	m.hedges, m.failovers = hedges1-hedges0, failovers1-failovers0
	m.attempted = n * per
	return m
}

func (st *servingState) cacheStats() (hits, misses int64) {
	for _, s := range st.servers {
		h, m := s.Cache().Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

func (st *servingState) frontCounters() (hedges, failovers int64) {
	if st.front == nil {
		return 0, 0
	}
	fs := st.front.Stats(context.Background())
	return fs.Fleet.Hedges, fs.Fleet.Failovers
}

func (m *measurement) pairsPerPass() float64 {
	return float64(m.spec.cyclesPerPass * m.spec.requests * pairsPerRequest)
}

// throughput is what the closed loop delivered: the pairs of a pass
// over the median pass, host interference and the client's own decoding
// and checking included.
func (m *measurement) throughput() float64 {
	return m.pairsPerPass() / (stats.Median(m.wallNs) / 1e9)
}

// wallUsPerPair is the median pass's wall time per pair.
func (m *measurement) wallUsPerPair() float64 { return 1e6 / m.throughput() }

// cpuUsPerPair is the median pass's CPU time (user+system, all cores)
// per pair.
func (m *measurement) cpuUsPerPair() float64 {
	return stats.Median(m.cpuNs) / 1e3 / m.pairsPerPass()
}

// latencyP50Ms is the median over passes of the pass's median request
// latency.
func (m *measurement) latencyP50Ms() float64 { return stats.Median(m.p50Ns) / 1e6 }

// quietThroughput is what the loop would deliver if every request took
// what the fastest 2 % of its repetitions took: a gauge of how much of
// the measured figure is the host's doing, never a throughput anybody
// was served at.
func (m *measurement) quietThroughput() float64 {
	n := m.spec.requests
	return float64(n*pairsPerRequest) / (sum(quiet(m.latNs, n)) / 1e9)
}

func (m *measurement) hitRatio() float64 {
	if m.hits+m.misses == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.hits+m.misses)
}

// check holds the timed passes to what the workload promises: every
// reply right, and the caches used the way the workload is named for.
func (m *measurement) check(what string, res *result) {
	sp := m.spec
	pairs := m.attempted * pairsPerRequest
	if m.failed > 0 {
		res.problem("%s: %d of %d requests failed or differed from the offline predictions", what, m.failed, m.attempted)
	}
	switch {
	case sp.hitRatio == 0:
		if m.hits != 0 || m.uncached != pairs {
			res.problem("%s: %d cache hits and %d of %d pairs flagged uncached, want 0 and all", what, m.hits, m.uncached, pairs)
		}
	case sp.replicas == 0:
		if m.misses != 0 || m.uncached != 0 {
			res.problem("%s: %d cache misses and %d pairs flagged uncached, want none", what, m.misses, m.uncached)
		}
	default:
		// Each replica holds only its own arc, so a pair that reaches
		// another replica misses. The one legitimate way there is a hedge:
		// the default front re-sends a sub-request that straggles past
		// 2 ms to the ring successor, which a busy host causes a few
		// times per run. Anything beyond that is mis-routing.
		hedged := m.hedges * pairsPerRequest
		if m.failovers != 0 || m.misses > hedged || int64(m.uncached) > m.misses {
			res.problem("%s: %d failovers, %d cache misses and %d pairs flagged uncached with %d hedges (at most %d pairs)",
				what, m.failovers, m.misses, m.uncached, m.hedges, hedged)
		}
	}
}

// macroF1 is the F1 of the served decisions against the gold labels,
// per dataset, averaged over the datasets in the working set.
func (st *servingState) macroF1() float64 {
	conf := map[string]*eval.Confusion{}
	var names []string
	for i, r := range st.ws {
		c := conf[r.dataset]
		if c == nil {
			c = &eval.Confusion{}
			conf[r.dataset] = c
			names = append(names, r.dataset)
		}
		for j, pred := range st.served[i] {
			c.Observe(pred, r.labels[j])
		}
	}
	sum := 0.0
	for _, n := range names {
		sum += conf[n].F1()
	}
	return sum / float64(len(names))
}

func runServing(sp *servingSpec, opt options) (*result, error) {
	res := newResult()
	if opt.quick {
		q := *sp
		q.requests = quickRequests
		sp = &q
	}
	st, err := setupServing(sp, opt.seed, sp.alternateJSON || opt.trace)
	if err != nil {
		return nil, err
	}
	defer st.close()
	// Set-up ends with the warm-up cycle. The offline scoring below is
	// the benchmark's own checking, not something a user of the program
	// waits for.
	res.set("setup_s", time.Since(processStart).Seconds())
	st.oracle()

	c := newClient(st.handler)
	plain := st.measure(c, sp.passCount(opt), nil)
	res.attempted, res.failed = plain.attempted, plain.failed
	plain.check("timed passes", res)

	res.set("throughput_pairs_s", plain.throughput())
	res.set("cpu_us_per_pair", plain.cpuUsPerPair())
	res.set("latency_p50_ms", plain.latencyP50Ms())
	res.set("macro_f1", st.macroF1())
	if opt.trace {
		if err := traceServing(st, c, &plain, opt, res); err != nil {
			return nil, err
		}
	}
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// client is the closed-loop load generator: one goroutine, one request
// in flight, everything it needs allocated once.
type client struct {
	handler  http.Handler
	rw       memWriter
	body     bodyReader
	wireReq  *http.Request
	jsonReq  *http.Request
	wireResp wire.Response
	jsonResp serve.MatchResponse
}

func newClient(h http.Handler) *client {
	c := &client{handler: h}
	c.rw.header = http.Header{}
	mk := func(contentType string) *http.Request {
		req, err := http.NewRequest(http.MethodPost, "/match", nil)
		if err != nil {
			panic(err) // constant arguments
		}
		req.Header.Set("Content-Type", contentType)
		req.Body = &c.body
		return req
	}
	c.wireReq = mk(wire.ContentType)
	c.jsonReq = mk("application/json")
	return c
}

// serve sends one request through the handler; the reply stays in c.rw.
func (c *client) serve(r *request, useJSON bool) {
	req, body := c.wireReq, r.wire
	if useJSON {
		req, body = c.jsonReq, r.json
	}
	c.rw.reset()
	c.body.Reset(body)
	c.handler.ServeHTTP(&c.rw, req)
}

// decode reads the reply with the program's own codecs. The returned
// slices are valid until the next request.
func (c *client) decode(useJSON bool) (status int, preds, cached []bool) {
	if c.rw.status != http.StatusOK {
		return c.rw.status, nil, nil
	}
	if useJSON {
		if err := json.Unmarshal(c.rw.body, &c.jsonResp); err != nil {
			return http.StatusBadGateway, nil, nil
		}
		return c.rw.status, c.jsonResp.Predictions, c.jsonResp.Cached
	}
	typ, payload, err := wire.ParseFrame(c.rw.body)
	if err != nil || typ != wire.TResp || c.wireResp.Decode(payload) != nil {
		return http.StatusBadGateway, nil, nil
	}
	return c.rw.status, c.wireResp.Preds, c.wireResp.Cached
}

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *memWriter) reset() { w.status, w.body = 0, w.body[:0] }

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// inprocTransport is the fleet's way to its replicas in this process:
// Match is a direct ServeWire call, so no socket is opened.
type inprocTransport struct {
	servers map[string]*serve.Server
	tracer  atomic.Pointer[tracer]
}

func (t *inprocTransport) Match(ctx context.Context, url string, body []byte) (int, []byte, error) {
	srv := t.servers[url]
	if srv == nil {
		return 0, nil, fmt.Errorf("inproc transport: no replica at %s", url)
	}
	tr := t.tracer.Load()
	var id int64
	if tr != nil {
		id = tr.start("transport.match", tr.cur.Load(), tr.req.Load())
	}
	status, resp := srv.ServeWire(ctx, body, nil)
	tr.end(id)
	return status, resp, nil
}

func (t *inprocTransport) Healthz(context.Context, string) error { return nil }

func (t *inprocTransport) Stats(_ context.Context, url string) (serve.Stats, error) {
	srv := t.servers[url]
	if srv == nil {
		return serve.Stats{}, fmt.Errorf("inproc transport: no replica at %s", url)
	}
	return srv.Stats(), nil
}
