package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/flight"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/snap"
	"repro/internal/wire"
)

// Admission errors; the HTTP layer maps them onto status codes (429 for a
// full queue, 503 for draining, 413 for oversized requests). The shed
// signals wrap the typed backend errors, so the routing layer's
// backend.Retryable classification and the HTTP status mapping agree by
// construction: a full queue IS an overload, draining IS transient
// unavailability.
var (
	ErrQueueFull = fmt.Errorf("serve: admission queue full: %w", backend.ErrOverloaded)
	ErrDraining  = fmt.Errorf("serve: server draining: %w", backend.ErrUnavailable)
	ErrTooLarge  = errors.New("serve: request exceeds max pairs per request")
)

// MatchResult is the outcome of one admitted request.
type MatchResult struct {
	// Preds holds the match decision per input pair.
	Preds []bool
	// Cached marks which decisions came from the prediction cache.
	Cached []bool
	// CostUSD is the priced inference cost of the scored (non-cached)
	// pairs; zero for unpriced matchers and for pure cache hits.
	CostUSD float64
	// Tokens is the input-token count the scored pairs were priced at.
	Tokens int
}

// request is one admitted match request travelling through the queue: the
// cache-miss pairs, their canonical keys, their positions in the caller's
// result, and the completion signal the handler waits on.
type request struct {
	ctx      context.Context
	pairs    []record.Pair
	keys     []string // aligned with pairs; nil when results are uncacheable
	slots    []int    // position of each pair in res.Preds
	res      *MatchResult
	done     chan struct{}
	enqueued time.Time
	// pickup is when a worker drained the request from the queue; key is
	// the XOR-folded hash of the request's canonical pair keys (0 when
	// the flight recorder is off). Both exist for flight records only.
	pickup time.Time
	key    uint64

	// span covers the request's whole life (admission through scoring);
	// qspan is its "queue" child, ended when a worker picks the request
	// up. Both are nil when tracing is off. After a successful enqueue the
	// worker owns both (the channel send/receive orders the hand-off) —
	// Submit must not touch them again, even when it returns early on a
	// dead context, or an End here could race the worker's and break span
	// nesting.
	span, qspan *obs.Span
}

// finish publishes the request's results to the waiting handler and ends
// the request span. Called exactly once, by the worker that owns the
// request.
func (r *request) finish() {
	r.span.End()
	close(r.done)
}

// pairSource is one decoded request as the request core sees it: enough
// to build every pair's canonical key for the cache probe and, for the
// misses only, a record.Pair that outlives the request's buffers. The two
// implementations are the two codecs' native forms, so neither converts
// to the other before the probe.
type pairSource interface {
	count() int
	appendKey(dst []byte, i int) []byte
	pair(i int) record.Pair
}

// recordPairs is the pair source of JSON and Go callers.
type recordPairs []record.Pair

func (ps recordPairs) count() int { return len(ps) }
func (ps recordPairs) appendKey(dst []byte, i int) []byte {
	return appendKey(dst, ps[i].Left.Values, ps[i].Right.Values)
}
func (ps recordPairs) pair(i int) record.Pair { return ps[i] }

// viewPairs is the pair source of binary frames: keys are built straight
// off the frame views, and only misses materialise records.
type viewPairs []wire.PairView

func (vs viewPairs) count() int                         { return len(vs) }
func (vs viewPairs) appendKey(dst []byte, i int) []byte { return AppendViewKey(dst, &vs[i]) }
func (vs viewPairs) pair(i int) record.Pair             { return vs[i].Materialize() }

// scratch is one request's pooled state: the frame decoder and reply
// encoder of the wire codec, and the key buffer and all-hit answer of the
// request core. With every piece pooled, a fully cached binary request
// runs from bytes-in to bytes-out without allocating.
type scratch struct {
	req wire.Request
	enc snap.Enc
	key []byte
	hit MatchResult
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// Submit admits pairs for matching and blocks until every pair is decided
// or ctx is done: the record codec in front of the request core.
func (s *Server) Submit(ctx context.Context, pairs []record.Pair) (*MatchResult, error) {
	return s.submit(ctx, pairs, 0)
}

// submit is Submit with the client's deadline_ms (0 = none given).
func (s *Server) submit(ctx context.Context, pairs []record.Pair, deadlineMs int) (*MatchResult, error) {
	if len(pairs) == 0 {
		return &MatchResult{}, nil
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	res, err := serveCore(s, ctx, sc, recordPairs(pairs), "json", deadlineMs)
	if res == &sc.hit {
		// An all-hit answer lives in the pooled scratch; the caller keeps
		// the result, so detach it.
		res = &MatchResult{Preds: append([]bool(nil), res.Preds...), Cached: append([]bool(nil), res.Cached...)}
	}
	return res, err
}

// serveCore is the one request pipeline behind both codecs: limit check,
// span and counters, cache probe, all-hit return, miss hand-off. src must
// hold at least one pair. An all-hit answer is returned in sc.hit and is
// valid only until sc is recycled; any other answer is heap-owned. It is
// a top-level generic so each pair source gets its own instantiation and
// nothing on the hit path is boxed.
func serveCore[S pairSource](s *Server, ctx context.Context, sc *scratch, src S, proto string, deadlineMs int) (*MatchResult, error) {
	n := src.count()
	if n > s.cfg.MaxPairsPerRequest {
		return nil, ErrTooLarge
	}
	s.metrics.requests.Add(1)
	start := time.Now()
	span := s.cfg.Tracer.Root("request")
	span.SetStr("matcher", s.matcher.Name())
	span.SetStr("proto", proto)
	span.SetInt("pairs", int64(n))

	// Resolve cache hits up front: hits never enter the queue, never hold
	// a worker, and cost nothing. Keys are built in pooled scratch and
	// looked up by bytes, so a hit allocates nothing.
	cacheable := s.cacheable()
	hit := &sc.hit
	nmiss := n
	var kh uint64
	if cacheable {
		if cap(hit.Preds) < n {
			hit.Preds, hit.Cached = make([]bool, n), make([]bool, n)
		}
		hit.Preds, hit.Cached = hit.Preds[:n], hit.Cached[:n]
		nmiss = 0
		for i := 0; i < n; i++ {
			sc.key = src.appendKey(sc.key[:0], i)
			if s.flight != nil {
				kh ^= flight.Hash(sc.key)
			}
			match, ok := s.cache.GetBytes(sc.key)
			hit.Preds[i], hit.Cached[i] = match, ok
			if !ok {
				nmiss++
			}
		}
	}
	s.metrics.pairsCached.Add(int64(n - nmiss))
	span.SetInt("cached", int64(n-nmiss))
	if nmiss == 0 {
		s.metrics.requestsOK.Add(1)
		s.metrics.observeLatency(time.Since(start))
		span.SetStr("outcome", "cache")
		span.End()
		s.flightEdge(kh, flight.CodeCacheHit, n)
		return hit, nil
	}

	// Miss path: the unresolved pairs leave the request's buffers (the
	// scoring queue outlives them) with their durable key strings, which
	// the cache Put needs anyway. res and friends must be heap-owned — see
	// submitMisses.
	res := &MatchResult{Preds: make([]bool, n), Cached: make([]bool, n)}
	misses := make([]record.Pair, 0, nmiss)
	slots := make([]int, 0, nmiss)
	var keys []string
	if cacheable {
		copy(res.Preds, hit.Preds)
		copy(res.Cached, hit.Cached)
		keys = make([]string, 0, nmiss)
	}
	for i := 0; i < n; i++ {
		if cacheable {
			if hit.Cached[i] {
				continue
			}
			sc.key = src.appendKey(sc.key[:0], i)
			keys = append(keys, string(sc.key))
		}
		misses = append(misses, src.pair(i))
		slots = append(slots, i)
	}
	ctx, cancel := WithDeadline(ctx, deadlineMs, s.cfg.DefaultDeadline)
	defer cancel()
	return s.submitMisses(ctx, start, span, res, misses, keys, slots, kh)
}

// WithDeadline applies the /match deadline rule: the request's own
// deadline_ms wins over the service default def, and zero of both leaves
// ctx unbounded. The returned cancel is never nil. The request core and
// the fleet front's Submit both bound their waits with it.
func WithDeadline(ctx context.Context, deadlineMs int, def time.Duration) (context.Context, context.CancelFunc) {
	if deadlineMs > 0 {
		def = time.Duration(deadlineMs) * time.Millisecond
	}
	if def <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, def)
}

// submitMisses queues the cache-miss pairs and blocks until they are all
// decided or ctx is done: the tail of the request core. res, misses, keys and slots must be heap-owned by the
// request: on a deadline-expired return the owning worker may still touch
// them, so callers must not recycle these buffers through a pool.
func (s *Server) submitMisses(ctx context.Context, start time.Time, span *obs.Span, res *MatchResult, misses []record.Pair, keys []string, slots []int, kh uint64) (*MatchResult, error) {
	req := &request{
		ctx:      ctx,
		pairs:    misses,
		keys:     keys,
		slots:    slots,
		res:      res,
		done:     make(chan struct{}),
		enqueued: start,
		key:      kh,
		span:     span,
		qspan:    span.Child("queue"),
	}
	if err := s.enqueue(req); err != nil {
		// The request never entered the queue, so this path still owns its
		// spans.
		req.qspan.End()
		span.SetStr("outcome", "shed")
		span.End()
		s.flightEdge(kh, shedCode(err), len(misses))
		return nil, err
	}
	select {
	case <-req.done:
		s.metrics.requestsOK.Add(1)
		s.metrics.observeLatency(time.Since(start))
		return res, nil
	case <-ctx.Done():
		// The request stays queued; its owning worker sees the expired
		// context and discards it without scoring (and ends its spans).
		s.metrics.deadlineExceeded.Add(1)
		return nil, ctx.Err()
	}
}

// enqueue performs bounded, non-blocking admission. The shared lock pairs
// with Shutdown's exclusive lock so a send can never race the queue close.
// Shed signals feed the router's entry-tier breaker (when routing is on),
// so sustained local overload fails new work over instead of re-queueing
// against a saturated path.
func (s *Server) enqueue(req *request) error {
	// SLO-breach admission guard: while an objective is breached, shed a
	// configured fraction of new cache-miss traffic before it can deepen
	// the queue. A round-robin counter (not randomness) makes the shed
	// fraction exact and the decision deterministic per arrival index.
	if pp := s.preShed.Load(); pp > 0 && int64(s.preShedN.Add(1)%1000) < pp {
		s.metrics.shedSLO.Add(1)
		if s.router != nil {
			s.router.NoteShed(ErrSLOShed)
		}
		return ErrSLOShed
	}
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.draining {
		s.metrics.shedDraining.Add(1)
		if s.router != nil {
			s.router.NoteShed(ErrDraining)
		}
		return ErrDraining
	}
	select {
	case s.queue <- req:
		return nil
	default:
		s.metrics.shedQueueFull.Add(1)
		if s.router != nil {
			s.router.NoteShed(ErrQueueFull)
		}
		return ErrQueueFull
	}
}

// QueueDepth returns the number of requests waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.queue) }

// worker is one scoring goroutine: it blocks on the queue, coalesces
// waiting work into a bounded micro-batch, and scores it under the
// matcher's serving semantics. Workers drain the queue completely after
// Shutdown closes it, which is what makes shutdown graceful.
func (s *Server) worker() {
	defer s.workers.Done()
	for first := range s.queue {
		s.runBatch(s.coalesce(first))
	}
}

// coalesce greedily drains queued requests into first's micro-batch until
// MaxBatch pairs are gathered, the queue empties (after an optional
// BatchWait grace for stragglers), or the queue closes. Request-batch
// matchers never coalesce: each request is its own batch by definition,
// and spreading requests across workers beats serialising them on one.
func (s *Server) coalesce(first *request) []*request {
	batch := []*request{first}
	if s.semantics == SemRequestBatch || s.cfg.MaxBatch <= 1 {
		return batch
	}
	n := len(first.pairs)
	var grace <-chan time.Time
	if s.cfg.BatchWait > 0 {
		t := time.NewTimer(s.cfg.BatchWait)
		defer t.Stop()
		grace = t.C
	}
	for n < s.cfg.MaxBatch {
		select {
		case r, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, r)
			n += len(r.pairs)
		default:
			if grace == nil {
				return batch
			}
			select {
			case r, ok := <-s.queue:
				if !ok {
					return batch
				}
				batch = append(batch, r)
				n += len(r.pairs)
			case <-grace:
				return batch
			}
		}
	}
	return batch
}

// runBatch scores one coalesced micro-batch. Requests whose deadline
// expired while queued are discarded unscored — their handler has already
// answered 503, and scoring them would only steal capacity from live
// traffic.
func (s *Server) runBatch(batch []*request) {
	live := make([]*request, 0, len(batch))
	npairs := 0
	pickup := time.Now()
	for _, r := range batch {
		// Queue wait ends at pickup, whether or not the request is still
		// live.
		s.metrics.queueWait.ObserveSince(r.enqueued)
		r.pickup = pickup
		r.qspan.End()
		if r.ctx != nil && r.ctx.Err() != nil {
			s.metrics.pairsExpired.Add(int64(len(r.pairs)))
			r.span.SetStr("outcome", "expired")
			s.flightScored(r, flight.CodeExpired, -1, 0)
			r.finish()
			continue
		}
		live = append(live, r)
		npairs += len(r.pairs)
	}
	if len(live) == 0 {
		return
	}
	s.metrics.observeBatch(npairs)
	bspan := s.cfg.Tracer.Root("batch")
	bspan.SetInt("requests", int64(len(live)))
	bspan.SetInt("pairs", int64(npairs))
	sspan := bspan.Child("score")
	sctx := obs.WithSpan(context.Background(), sspan)
	switch s.semantics {
	case SemBatchInvariant:
		if s.router != nil {
			s.scoreRouted(sctx, live, npairs)
		} else {
			s.scoreCoalesced(sctx, live, npairs)
		}
	case SemSinglePair:
		s.scoreSingles(sctx, live)
	case SemRequestBatch:
		s.scoreRequests(sctx, live)
	}
	sspan.End()
	bspan.End()
}

// batchScratch is one worker's pooled buffer set for a coalesced scoring
// pass: the flattened pair slice fed to the matcher and the result buffer
// its batch kernel writes into.
type batchScratch struct {
	pairs    []record.Pair
	out      []bool
	outcomes []route.Outcome // routed path only
}

var batchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// scoreCoalesced feeds every live pair to the matcher as one batch — valid
// only under batch-invariant semantics, where the grouping provably cannot
// change any decision — then scatters results back to their requests.
//
// Matchers implementing matchers.BatchPredictor take the zero-allocation
// fast path: pooled pair/result buffers plus the matcher's batch kernel,
// which amortises its own scratch (sequence-matcher state, feature
// vectors) across the whole micro-batch. The pooling is safe because the
// BatchPredictor contract forbids retaining task.Pairs or out; matchers
// without the interface keep the original fresh-slice path, since Predict
// returns a slice whose ownership transfers to the caller.
func (s *Server) scoreCoalesced(ctx context.Context, live []*request, npairs int) {
	task := matchers.Task{Ctx: ctx, Opts: s.opts}
	var preds []bool
	var sc *batchScratch
	t0 := time.Now()
	if bp, ok := s.matcher.(matchers.BatchPredictor); ok {
		sc = batchPool.Get().(*batchScratch)
		task.Pairs = sc.pairs[:0]
		for _, r := range live {
			task.Pairs = append(task.Pairs, r.pairs...)
		}
		if cap(sc.out) < len(task.Pairs) {
			sc.out = make([]bool, len(task.Pairs))
		}
		preds = sc.out[:len(task.Pairs)]
		bp.PredictBatchInto(task, preds)
	} else {
		task.Pairs = make([]record.Pair, 0, npairs)
		for _, r := range live {
			task.Pairs = append(task.Pairs, r.pairs...)
		}
		preds = s.matcher.Predict(task)
	}
	predictUS := time.Since(t0).Microseconds()
	// Counted before any caller is released: a caller that reads /stats
	// right after its answer must find its own pairs there.
	s.metrics.pairsScored.Add(int64(npairs))
	i := 0
	for _, r := range live {
		for j := range r.pairs {
			s.deliver(r, j, preds[i])
			i++
		}
		r.span.SetStr("outcome", "ok")
		s.flightScored(r, flight.CodeScored, -1, predictUS)
		r.finish()
	}
	if sc != nil {
		sc.pairs = task.Pairs[:0]
		sc.out = preds[:0]
		batchPool.Put(sc)
	}
}

// scoreSingles scores each pair as its own batch of one — the canonical
// online semantics for batch-sensitive prompted matchers. The coalesced
// batch still amortises queue handoffs; only the matcher invocation is
// per-pair.
func (s *Server) scoreSingles(ctx context.Context, live []*request) {
	single := make([]record.Pair, 1)
	for _, r := range live {
		t0 := time.Now()
		for j, p := range r.pairs {
			single[0] = p
			preds := s.matcher.Predict(matchers.Task{Pairs: single, Ctx: ctx, Opts: s.opts})
			s.deliver(r, j, preds[0])
			s.metrics.pairsScored.Add(1)
		}
		r.span.SetStr("outcome", "ok")
		s.flightScored(r, flight.CodeScored, -1, time.Since(t0).Microseconds())
		r.finish()
	}
}

// scoreRequests scores each request as its own batch under the request's
// own context — ZeroER's mixture sees exactly the batch the client sent,
// matching offline cmd/emmatch output for the same pairs.
func (s *Server) scoreRequests(ctx context.Context, live []*request) {
	for _, r := range live {
		t0 := time.Now()
		preds, err := matchers.PredictCtx(r.ctx, s.matcher, matchers.Task{Pairs: r.pairs, Ctx: ctx, Opts: s.opts})
		predictUS := time.Since(t0).Microseconds()
		if err == nil {
			for j := range r.pairs {
				s.deliver(r, j, preds[j])
			}
			s.metrics.pairsScored.Add(int64(len(r.pairs)))
			r.span.SetStr("outcome", "ok")
			s.flightScored(r, flight.CodeScored, -1, predictUS)
		} else {
			s.metrics.pairsExpired.Add(int64(len(r.pairs)))
			r.span.SetStr("outcome", "expired")
			s.flightScored(r, flight.CodeExpired, -1, predictUS)
		}
		r.finish()
	}
}

// deliver writes one scored decision into its request slot, feeds the
// prediction cache, and accounts the pair's priced cost.
func (s *Server) deliver(r *request, j int, match bool) {
	r.res.Preds[r.slots[j]] = match
	if r.keys != nil {
		s.cache.Put(r.keys[j], match)
	}
	if s.pricingRate != 0 {
		d, t := s.pairCost(r.pairs[j])
		r.res.CostUSD += d
		r.res.Tokens += t
		s.metrics.scoredTokens.Add(int64(t))
	}
}
