package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The request path. The front is a byte relay: both entry points hand the
// routing core a request's decoded frame views, the core hashes each
// pair's canonical key once and appends the pair's encoded bytes
// (PairView.Raw) to its replica's pooled sub-frame, and the replies are
// reassembled into pooled result slices. No pair is materialised, no
// sub-batch is re-encoded, and nothing is allocated per pair.
//
// A sub-frame buffer is reused only once every attempt that was handed
// it has returned a status (Transport.Match's contract: after a status it
// no longer reads the body). An attempt that erred, lost a hedge race or
// was still running when its request gave up may read on, so its buffer
// is dropped and left to the collector.

// relay is one request's pooled routing state.
type relay struct {
	req wire.Request // Submit's decoded frame
	in  []byte       // Submit's encoded frame
	key []byte       // canonical key scratch

	direct []bool   // per replica: the ring owner takes its keys without a walk
	byRep  []int    // per replica: its group's index in groups, or -1
	succ   []string // ring walk scratch
	groups []*group // the request's sub-batches; the structs are pooled too
	res    serve.MatchResult
	wg     sync.WaitGroup
}

var relayPool = sync.Pool{New: func() any { return new(relay) }}

// group is one request's sub-batch bound for a single replica.
type group struct {
	rep *Replica
	// buf is the sub-frame: wire.RequestHeaderRoom bytes of room, then the
	// Raw spans of the group's pairs in request order.
	buf []byte
	// held reports that an attempt which may still read buf was handed it,
	// so buf must be neither rewritten nor pooled.
	held  bool
	slots []int    // each pair's position in the request
	khs   []uint64 // each pair's ring key hash

	names []string   // successor walk scratch
	chain []*Replica // failover candidates

	cost   float64
	tokens int
	err    error
}

// addGroup appends a group bound for rep, reusing a pooled struct.
func (rs *relay) addGroup(rep *Replica) {
	n := len(rs.groups)
	if n < cap(rs.groups) {
		rs.groups = rs.groups[:n+1]
	} else {
		rs.groups = append(rs.groups, nil)
	}
	g := rs.groups[n]
	if g == nil {
		g = new(group)
		rs.groups[n] = g
	}
	g.rep, g.held, g.cost, g.tokens, g.err = rep, false, 0, 0, nil
	if cap(g.buf) < wire.RequestHeaderRoom {
		g.buf = make([]byte, wire.RequestHeaderRoom, 4096)
	}
	g.buf = g.buf[:wire.RequestHeaderRoom]
	g.slots, g.khs = g.slots[:0], g.khs[:0]
}

// frame returns the group's sub-frame with a header carrying the time
// left on ctx, or false when none is left. A buffer an earlier attempt may
// still read stays that attempt's: the frame goes out from a fresh copy.
func (g *group) frame(ctx context.Context) ([]byte, bool) {
	ms, ok := timeLeft(ctx)
	if !ok {
		return nil, false
	}
	if g.held {
		g.buf, g.held = append([]byte(nil), g.buf...), false
	}
	return wire.FrameRequest(g.buf, ms, len(g.slots)), true
}

// timeLeft is the deadline_ms an attempt sent now carries: ctx's remaining
// time rounded up to whole milliseconds, or 0 (none) when ctx has no
// deadline. ok is false once the deadline has passed.
func timeLeft(ctx context.Context) (ms int, ok bool) {
	dl, bounded := ctx.Deadline()
	if !bounded {
		return 0, true
	}
	left := time.Until(dl)
	if left <= 0 {
		return 0, false
	}
	return int((left + time.Millisecond - 1) / time.Millisecond), true
}

// serveWire answers one request frame through the fleet: serve's frame
// codec decodes it, the routing core relays its pair bytes, and the codec
// encodes the reassembled answer as a TResp.
func (f *Front) serveWire(ctx context.Context, body, dst []byte) (int, []byte) {
	rs := relayPool.Get().(*relay)
	defer relayPool.Put(rs)
	return serve.ServeFrame(body, dst, func(req *wire.Request) (*serve.MatchResult, error) {
		return f.route(ctx, rs, req.Pairs, req.DeadlineMs)
	})
}

// Submit routes pairs through the fleet: keys are hashed onto the ring,
// the batch splits into per-replica sub-batches, sub-batches fan out
// concurrently (with hedging and failover), and the responses
// reassemble in the caller's order. deadlineMs (0 = none) bounds the
// whole call, and every attempt forwards the time left of it. The pairs
// are encoded once and take the wire path's routing core.
func (f *Front) Submit(ctx context.Context, pairs []record.Pair, deadlineMs int) (*serve.MatchResult, error) {
	if len(pairs) == 0 {
		return &serve.MatchResult{}, nil
	}
	if len(pairs) > f.cfg.MaxPairsPerRequest {
		return nil, serve.ErrTooLarge
	}
	rs := relayPool.Get().(*relay)
	defer relayPool.Put(rs)
	rs.in = append(rs.in[:0], make([]byte, wire.RequestHeaderRoom)...)
	for _, p := range pairs {
		rs.in = wire.AppendPair(rs.in, p)
	}
	_, payload, err := wire.ParseFrame(wire.FrameRequest(rs.in, deadlineMs, len(pairs)))
	if err == nil {
		err = rs.req.Decode(payload)
	}
	if err != nil {
		// A frame fails only past wire.MaxPayload: too large for a replica.
		return nil, fmt.Errorf("%w: %v", serve.ErrTooLarge, err)
	}
	res, err := f.route(ctx, rs, rs.req.Pairs, deadlineMs)
	if err != nil {
		return nil, err
	}
	// res lives in the pooled relay; the caller keeps the result.
	return &serve.MatchResult{
		Preds:   append([]bool(nil), res.Preds...),
		Cached:  append([]bool(nil), res.Cached...),
		CostUSD: res.CostUSD,
		Tokens:  res.Tokens,
	}, nil
}

// route is the routing core behind both entry points: it splits views
// into per-replica sub-frames, sends them (the caller's goroutine runs
// the first group itself), and reassembles the answers in rs.res, which
// is valid until rs is recycled.
func (f *Front) route(ctx context.Context, rs *relay, views []wire.PairView, deadlineMs int) (*serve.MatchResult, error) {
	if len(views) > f.cfg.MaxPairsPerRequest {
		return nil, serve.ErrTooLarge
	}
	ctx, cancel := serve.WithDeadline(ctx, deadlineMs, 0)
	defer cancel()
	f.metrics.requests.Inc()
	pl := f.place.Load()
	if pl.ring.Len() == 0 {
		f.metrics.errors.Inc()
		return nil, fmt.Errorf("fleet: no replicas: %w", backend.ErrUnavailable)
	}
	start := time.Now()
	f.split(rs, pl, views)

	n := len(views)
	res := &rs.res
	if cap(res.Preds) < n {
		res.Preds, res.Cached = make([]bool, n), make([]bool, n)
	}
	res.Preds, res.Cached = res.Preds[:n], res.Cached[:n]
	for _, g := range rs.groups[1:] {
		rs.wg.Add(1)
		go f.runGroup(ctx, pl, g, res, &rs.wg)
	}
	rs.groups[0].err = f.sendGroup(ctx, pl, rs.groups[0], res)
	rs.wg.Wait()

	// The first error in group order wins.
	var err error
	res.CostUSD, res.Tokens = 0, 0
	for _, g := range rs.groups {
		if g.held {
			g.buf, g.held = nil, false
		}
		if err == nil {
			err = g.err
		}
		res.CostUSD += g.cost
		res.Tokens += g.tokens
	}
	if err != nil {
		f.metrics.errors.Inc()
		return nil, err
	}
	f.metrics.requestsOK.Inc()
	f.metrics.pairs.Add(int64(n))
	f.metrics.latency.ObserveDuration(time.Since(start))
	return res, nil
}

func (f *Front) runGroup(ctx context.Context, pl *placement, g *group, res *serve.MatchResult, wg *sync.WaitGroup) {
	defer wg.Done()
	g.err = f.sendGroup(ctx, pl, g, res)
}

// split assigns every pair to a replica and appends its bytes to that
// replica's sub-frame. A pair goes to its ring owner when the owner's
// breaker is closed and it is not shed-penalised, which is read once per
// request; otherwise choose walks the ring for it. Pairs keep their
// request order within a group, so a request whose pairs all have one
// owner goes out as the frame that arrived: the same pair bytes, behind a
// header carrying the time left.
func (f *Front) split(rs *relay, pl *placement, views []wire.PairView) {
	now := f.clock.Now()
	rs.direct, rs.byRep, rs.groups = rs.direct[:0], rs.byRep[:0], rs.groups[:0]
	for _, r := range pl.reps {
		rs.direct = append(rs.direct, r.breaker.State() == route.Closed && !r.penalizedAt(now))
		rs.byRep = append(rs.byRep, -1)
	}
	for i := range views {
		rs.key = serve.AppendViewKey(rs.key[:0], &views[i])
		kh := KeyHash(rs.key)
		ri := int(pl.ring.ownerIndex(kh))
		if !rs.direct[ri] {
			var diverted bool
			ri, diverted = f.choose(pl, kh, now, rs)
			if diverted {
				f.metrics.diverts.Inc()
			}
		}
		gi := rs.byRep[ri]
		if gi < 0 {
			gi = len(rs.groups)
			rs.byRep[ri] = gi
			rs.addGroup(pl.reps[ri])
		}
		g := rs.groups[gi]
		g.buf = append(g.buf, views[i].Raw...)
		g.slots = append(g.slots, i)
		g.khs = append(g.khs, kh)
	}
}

// choose walks keyHash's successor chain and picks the replica the pair
// should be sent to, as an index into pl.reps: the first member that is
// neither ejected (breaker Open) nor shed-penalized for this key. A
// penalized replica diverts only ShedDivertPermille of its keys — a
// down-weight, not an ejection. When every member is ejected the owner is
// returned anyway: sending a doomed request gives the caller a real error
// instead of a silent drop.
func (f *Front) choose(pl *placement, keyHash uint64, now time.Duration, rs *relay) (int, bool) {
	rs.succ = pl.ring.Successors(keyHash, rs.succ)
	diverted := false
	for i, name := range rs.succ {
		ri := pl.index(name)
		r := pl.reps[ri]
		if r.breaker.State() == route.Open {
			continue
		}
		if r.penalizedAt(now) && int(mix64(keyHash^divertSalt)%1000) < f.cfg.ShedDivertPermille {
			// Down-weighted: this key diverts for the penalty window,
			// unless every later member is also out (then it sticks).
			if i < len(rs.succ)-1 {
				diverted = true
				continue
			}
		}
		return ri, diverted
	}
	return pl.index(rs.succ[0]), false
}

// sendGroup delivers one sub-batch: the chosen replica first, then ring
// successors on failure (failover), with a hedge racing any straggling
// attempt. Every attempt's header carries the time left, and no attempt
// is sent once none is. On success the predictions land in res at the
// group's slots.
func (f *Front) sendGroup(ctx context.Context, pl *placement, g *group, res *serve.MatchResult) error {
	// Candidate chain: the chosen replica, then every other member in
	// ring order from the group's first key. The chosen replica may
	// itself be a successor (divert/ejection), so dedupe against it.
	g.names = pl.ring.Successors(g.khs[0], g.names)
	g.chain = append(g.chain[:0], g.rep)
	for _, name := range g.names {
		if r := pl.replica(name); r != g.rep {
			g.chain = append(g.chain, r)
		}
	}

	var lastErr error
	for i, rep := range g.chain {
		// Skip ejected successors during failover, but never skip the
		// last candidate: a full sweep of open breakers still deserves
		// one real attempt.
		if i > 0 && rep.breaker.State() == route.Open && i < len(g.chain)-1 {
			continue
		}
		frame, ok := g.frame(ctx)
		if !ok {
			lastErr = fmt.Errorf("fleet: no time left to send to %s: %w", rep.name, context.DeadlineExceeded)
			break
		}
		if i > 0 {
			f.metrics.failovers.Inc()
		}
		r := f.sendHedged(ctx, rep, g.chain[i+1:], g, frame)
		if r.err != nil {
			lastErr = r.err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		wr := r.wr
		if len(wr.Preds) != len(g.slots) {
			lastErr = fmt.Errorf("fleet: replica %s answered %d predictions for %d pairs", r.from.name, len(wr.Preds), len(g.slots))
			r.from.failures.Inc()
			r.from.breaker.NoteFailure()
			respPool.Put(wr)
			continue
		}
		for j, slot := range g.slots {
			res.Preds[slot] = wr.Preds[j]
			res.Cached[slot] = wr.Cached[j]
		}
		g.cost, g.tokens = wr.CostUSD, wr.Tokens
		respPool.Put(wr)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no replica available: %w", backend.ErrUnavailable)
	}
	return lastErr
}

// sendResult is one sub-request's outcome in the hedge race. settled
// reports that the transport returned a status, so it no longer reads the
// frame it was handed.
type sendResult struct {
	wr      *wire.Response // from respPool; nil unless err is nil
	from    *Replica
	err     error
	settled bool
}

// respPool recycles decoded replies. A hedge loser's reply is never taken
// back, so it is left to the collector.
var respPool = sync.Pool{New: func() any { return new(wire.Response) }}

// sendHedged sends frame (g's sub-frame) to rep; when the attempt
// straggles past the hedge threshold and a successor exists, a hedge
// request races it with its own copy of the frame and the first success
// wins. g.held records whether rep's attempt may still read the frame.
// Both outcomes feed the replicas' Closed-state breaker bookkeeping.
func (f *Front) sendHedged(ctx context.Context, rep *Replica, successors []*Replica, g *group, frame []byte) sendResult {
	threshold := f.hedgeThreshold()
	var hedge *Replica
	if threshold > 0 {
		for _, s := range successors {
			if s.breaker.State() != route.Open {
				hedge = s
				break
			}
		}
	}
	if hedge == nil {
		r := f.sendOnce(ctx, rep, frame)
		g.held = !r.settled
		return r
	}

	// Sized to both sends, so a loser never blocks on a race nobody reads.
	ch := make(chan sendResult, 2)
	go func() { ch <- f.sendOnce(ctx, rep, frame) }()
	g.held = true // until rep's own result is taken
	timer := time.NewTimer(threshold)
	defer timer.Stop()
	select {
	case first := <-ch:
		g.held = !first.settled
		return first
	case <-timer.C:
		// Straggler: issue the hedge, take the first finisher that
		// succeeded (falling back to the second if the first errored).
		ms, ok := timeLeft(ctx)
		if !ok {
			return sendResult{from: rep, err: fmt.Errorf("fleet: %s: %w", rep.name, context.DeadlineExceeded)}
		}
		hframe := wire.FrameRequest(append([]byte(nil), g.buf...), ms, len(g.slots))
		f.metrics.hedges.Inc()
		go func() { ch <- f.sendOnce(ctx, hedge, hframe) }()
		var failed sendResult
		for range 2 {
			r := <-ch
			if r.from == rep {
				g.held = !r.settled
			}
			if r.err == nil {
				if r.from == hedge {
					f.metrics.hedgeWins.Inc()
					hedge.hedgesWon.Inc()
				}
				return r
			}
			if failed.err == nil {
				failed = r
			}
		}
		return failed
	case <-ctx.Done():
		return sendResult{from: rep, err: ctx.Err()}
	}
}

// hedgeThreshold returns the live straggler threshold: the fixed
// HedgeAfter when configured, otherwise the rolling p99 of sub-request
// latency clamped to [hedgeMin, hedgeMax]. Zero disables hedging (also
// the warm-up state: with under 32 observed sub-requests there is no
// p99 worth trusting, so only a configured HedgeAfter hedges).
func (f *Front) hedgeThreshold() time.Duration {
	if f.cfg.HedgeDisabled {
		return 0
	}
	if f.cfg.HedgeAfter > 0 {
		return f.cfg.HedgeAfter
	}
	h := f.metrics.subLatency
	if h.Count() < 32 {
		return 0
	}
	thr := time.Duration(h.Quantile(0.99)) * time.Microsecond
	if thr < hedgeMin {
		thr = hedgeMin
	}
	if thr > hedgeMax {
		thr = hedgeMax
	}
	return thr
}

// sendOnce performs one sub-request and classifies the outcome:
// transport errors and 5xx count as failures (breaker food); 429/503
// count as sheds (penalty window + breaker food) and keep their meaning
// — overload vs unavailability — so the front answers a client with the
// status a replica would have; 200 parses the wire response.
// Closed-state breaker bookkeeping only — probes own recovery.
func (f *Front) sendOnce(ctx context.Context, rep *Replica, frame []byte) sendResult {
	rep.sent.Inc()
	f.metrics.fanouts.Inc()
	t0 := time.Now()
	status, resp, err := f.transport.Match(ctx, rep.URL(), frame)
	f.metrics.subLatency.ObserveDuration(time.Since(t0))
	if err != nil {
		rep.failures.Inc()
		rep.breaker.NoteFailure()
		return sendResult{from: rep, err: fmt.Errorf("fleet: %s: %w", rep.name, err)}
	}
	switch status {
	case http.StatusOK:
		wr := respPool.Get().(*wire.Response)
		if perr := serve.ParseWireResponse(resp, wr); perr != nil {
			respPool.Put(wr)
			rep.failures.Inc()
			rep.breaker.NoteFailure()
			return sendResult{from: rep, err: fmt.Errorf("fleet: %s: %w", rep.name, perr), settled: true}
		}
		rep.breaker.NoteSuccess()
		return sendResult{wr: wr, from: rep, settled: true}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		rep.sheds.Inc()
		rep.shedUntil.Store(int64(f.clock.Now() + f.cfg.ShedPenalty))
		rep.breaker.NoteFailure()
		shed := backend.ErrOverloaded
		if status == http.StatusServiceUnavailable {
			shed = backend.ErrUnavailable
		}
		return sendResult{from: rep, err: fmt.Errorf("fleet: %s shed with %d: %w", rep.name, status, shed), settled: true}
	default:
		rep.failures.Inc()
		rep.breaker.NoteFailure()
		return sendResult{from: rep, err: fmt.Errorf("fleet: %s answered status %d", rep.name, status), settled: true}
	}
}
