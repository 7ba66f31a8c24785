package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/wire"
)

// Transport is how the front reaches a replica. Production uses the
// pooled HTTPTransport; tests inject stubs with scripted failures and
// latencies so failover, hedging and ejection trajectories are
// deterministic.
type Transport interface {
	// Match posts one wire-framed /match body to the replica and returns
	// the HTTP status plus the raw response frame.
	Match(ctx context.Context, url string, body []byte) (status int, resp []byte, err error)
	// Healthz probes replica liveness (nil = healthy).
	Healthz(ctx context.Context, url string) error
	// Stats fetches the replica's /stats snapshot.
	Stats(ctx context.Context, url string) (serve.Stats, error)
}

// Config parameterises a Front.
type Config struct {
	// MatcherName is the matcher identity the fleet serves; it is echoed
	// in /match responses and /stats so clients and dashboards see the
	// same field a single emserve would report.
	MatcherName string
	// Clock drives shed-penalty windows, probe bookkeeping and the SLO
	// engine. Defaults to the real clock; tests inject a clock.Virtual.
	Clock clock.Clock
	// Transport reaches replicas; defaults to an HTTPTransport.
	Transport Transport
	// Breaker configures per-replica ejection. The fleet default is
	// tighter than the routing default (3 consecutive failures, 2s
	// cooldown): a dead replica should stop owning traffic quickly, and
	// a /healthz probe re-admits it cheaply.
	Breaker route.BreakerConfig
	// MaxPairsPerRequest bounds one request's batch; <=0 defaults to 256
	// (mirroring serve.Config).
	MaxPairsPerRequest int

	// HedgeAfter, when positive, fixes the straggler threshold: a
	// sub-request outstanding that long gets a hedge to the next ring
	// replica, first response wins. Zero derives the threshold from the
	// rolling p99 of sub-request latency, clamped to [hedgeMin,
	// hedgeMax]. HedgeDisabled turns hedging off entirely.
	HedgeAfter    time.Duration
	HedgeDisabled bool

	// ShedPenalty is how long a 429/503 down-weights a replica; during
	// the window ShedDivertPermille of its keys (chosen deterministically
	// per key) divert to the next ring replica. Defaults: 250ms, 500‰.
	ShedPenalty        time.Duration
	ShedDivertPermille int

	// MirrorPermille is the deterministic per-pair sample rate mirrored
	// to an active canary (default 250‰); CanaryMinSample is how many
	// mirrored pairs must compare bit-identical before the canary is
	// promotable (default 64). Mirrors run asynchronously off the live
	// request path, each bounded by mirrorTimeout — a slow or hung canary
	// never adds latency to live traffic.
	MirrorPermille  int
	CanaryMinSample int

	// ProbeInterval, when positive, starts a background loop probing
	// every replica's /healthz (driving breaker recovery) and ticking
	// the SLO engine. Zero leaves probing to explicit ProbeAll calls —
	// deterministic tests drive it by hand.
	ProbeInterval time.Duration

	// SLOSpecs, when non-empty, arms a fleet-level burn-rate engine over
	// the front's own aggregated metrics: latency ceilings bind the
	// fleet request-latency histogram, shed ratios the replica shed
	// signals, error ratios the permanently failed requests. Evaluated
	// on Clock.
	SLOSpecs []slo.Spec
}

const (
	// hedgeMin and hedgeMax clamp the rolling-p99 straggler threshold.
	hedgeMin = 2 * time.Millisecond
	hedgeMax = 500 * time.Millisecond
	// mirrorTimeout bounds one asynchronous canary mirror sub-request.
	mirrorTimeout = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MatcherName == "" {
		c.MatcherName = "fleet"
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.Transport == nil {
		c.Transport = NewHTTPTransport(0)
	}
	if c.Breaker.FailureThreshold <= 0 {
		c.Breaker.FailureThreshold = 3
	}
	if c.Breaker.Cooldown <= 0 {
		c.Breaker.Cooldown = 2 * time.Second
	}
	if c.MaxPairsPerRequest <= 0 {
		c.MaxPairsPerRequest = 256
	}
	if c.ShedPenalty <= 0 {
		c.ShedPenalty = 250 * time.Millisecond
	}
	if c.ShedDivertPermille <= 0 {
		c.ShedDivertPermille = 500
	}
	if c.MirrorPermille <= 0 {
		c.MirrorPermille = 250
	}
	if c.CanaryMinSample <= 0 {
		c.CanaryMinSample = 64
	}
	return c
}

// Replica is one ring member: a stable ring identity, a mutable target
// URL (canary cutover swaps it), a breaker, and its counters.
type Replica struct {
	name string
	url  atomic.Value // string

	breaker   *route.Breaker
	shedUntil atomic.Int64 // clock time (ns) until which sheds down-weight this replica

	sent       *obs.Counter // sub-requests sent (hedges included)
	failures   *obs.Counter // sub-requests failed (transport error, 5xx, bad frame)
	sheds      *obs.Counter // 429/503 shed responses
	hedgesWon  *obs.Counter // hedge sub-requests this replica answered first
	probes     *obs.Counter // health probes issued
	probeFails *obs.Counter // health probes failed
	ejections  *obs.Counter // breaker transitions into Open
}

// Name returns the replica's ring identity.
func (r *Replica) Name() string { return r.name }

// URL returns the replica's current target URL.
func (r *Replica) URL() string { return r.url.Load().(string) }

// Breaker returns the replica's ejection breaker.
func (r *Replica) Breaker() *route.Breaker { return r.breaker }

func (r *Replica) penalizedAt(now time.Duration) bool {
	return int64(now) < r.shedUntil.Load()
}

// divertSalt decorrelates shed-diversion draws from ring placement.
const divertSalt = 0x5bf0_3635_0aef_7bb1

// mirrorSalt decorrelates canary mirror sampling from both.
const mirrorSalt = 0x1d8e_4e27_c47d_1f29

type fleetMetrics struct {
	requests   *obs.Counter // /match requests admitted
	requestsOK *obs.Counter // requests fully answered
	errors     *obs.Counter // admitted requests failed (unroutable, or every replica exhausted)
	pairs      *obs.Counter // pairs answered
	fanouts    *obs.Counter // sub-requests issued (hedges included)
	hedges     *obs.Counter // hedge sub-requests issued
	hedgeWins  *obs.Counter // hedges that finished before their primary
	failovers  *obs.Counter // sub-batches re-sent to a successor after a failure
	diverts    *obs.Counter // sub-batches diverted off a shed-penalized replica
	mirrored   *obs.Counter // pairs mirrored to a canary

	latency    *obs.Histogram // whole-request latency, µs
	subLatency *obs.Histogram // per-sub-request latency, µs (feeds the hedge p99)

	sloBreaches *obs.Counter
}

// Front is the fleet router: it owns the ring, the replica set and the
// fan-out machinery. Create with New, add replicas, serve HTTP via
// Handler, stop with Close.
type Front struct {
	cfg       Config
	clock     clock.Clock
	transport Transport

	ring     atomic.Pointer[Ring]
	mu       sync.RWMutex // guards replicas map and membership changes
	replicas map[string]*Replica

	reg     *obs.Registry
	metrics fleetMetrics
	started time.Time

	canary  atomic.Pointer[canary]
	mirrors sync.WaitGroup // in-flight asynchronous canary mirrors

	sloEngine *slo.Engine

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Front with no replicas; call AddReplica before serving.
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(DefaultVNodes)
	if err != nil {
		return nil, err
	}
	f := &Front{
		cfg:       cfg,
		clock:     cfg.Clock,
		transport: cfg.Transport,
		replicas:  make(map[string]*Replica),
		started:   time.Now(),
		stop:      make(chan struct{}),
		reg:       obs.NewRegistry(obs.Label{Key: "fleet", Value: cfg.MatcherName}),
	}
	f.ring.Store(ring)
	m := &f.metrics
	m.requests = f.reg.Counter("emfleet_requests_total", "/match requests admitted by the front router")
	m.requestsOK = f.reg.Counter("emfleet_requests_ok_total", "requests answered with predictions")
	m.errors = f.reg.Counter("emfleet_request_errors_total", "admitted requests failed (unroutable, or every replica exhausted)")
	m.pairs = f.reg.Counter("emfleet_pairs_total", "pairs answered across the fleet")
	m.fanouts = f.reg.Counter("emfleet_fanouts_total", "sub-requests issued to replicas, hedges included")
	m.hedges = f.reg.Counter("emfleet_hedges_total", "hedge sub-requests issued past the straggler threshold")
	m.hedgeWins = f.reg.Counter("emfleet_hedge_wins_total", "hedges that finished before their primary")
	m.failovers = f.reg.Counter("emfleet_failovers_total", "sub-batches re-sent to a ring successor after a failure")
	m.diverts = f.reg.Counter("emfleet_diverts_total", "sub-batches diverted off a shed-penalized replica")
	m.mirrored = f.reg.Counter("emfleet_mirrored_pairs_total", "pairs mirrored to a canary replica")
	m.latency = f.reg.Log2Histogram("emfleet_latency_us", "fleet request latency in microseconds")
	m.subLatency = f.reg.Log2Histogram("emfleet_sub_latency_us", "replica sub-request latency in microseconds")
	m.sloBreaches = f.reg.Counter("emfleet_slo_breaches_total", "fleet SLO objectives entering BREACH")
	f.reg.GaugeFunc("emfleet_replicas", "ring members", func() float64 {
		return float64(f.ring.Load().Len())
	})
	f.reg.GaugeFunc("emfleet_replicas_healthy", "ring members with a closed breaker", func() float64 {
		return float64(f.healthyCount())
	})
	if err := f.initSLO(); err != nil {
		return nil, err
	}
	if cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go f.probeLoop(cfg.ProbeInterval)
	}
	return f, nil
}

// initSLO binds fleet-level objectives to the front's own instruments.
func (f *Front) initSLO() error {
	specs := f.cfg.SLOSpecs
	if len(specs) == 0 {
		return nil
	}
	e := slo.NewEngine(slo.Config{Clock: f.clock, Resolution: serve.AutoSLOResolution(specs)})
	m := &f.metrics
	for _, sp := range specs {
		var err error
		switch sp.Kind {
		case slo.KindLatency:
			err = e.AddLatency(sp, m.latency)
		case slo.KindRatio:
			if sp.Name == "error" {
				err = e.AddRatio(sp,
					func() float64 { return float64(m.errors.Load()) },
					func() float64 { return float64(m.requests.Load()) })
			} else {
				err = e.AddRatio(sp,
					func() float64 { return float64(f.shedTotal()) },
					func() float64 { return float64(m.fanouts.Load()) })
			}
		default:
			err = fmt.Errorf("fleet: unsupported SLO kind %s (fleet objectives are latency/shed/error)", sp.Kind)
		}
		if err != nil {
			return err
		}
	}
	e.RegisterMetrics(f.reg)
	e.OnTransition(func(tr slo.Transition) {
		if tr.To == slo.Breach {
			f.metrics.sloBreaches.Add(1)
		}
	})
	f.sloEngine = e
	return nil
}

// shedTotal sums shed responses across replicas.
func (f *Front) shedTotal() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var n int64
	for _, r := range f.replicas {
		n += r.sheds.Load()
	}
	return n
}

// SLO returns the fleet SLO engine, or nil when no objectives are
// configured.
func (f *Front) SLO() *slo.Engine { return f.sloEngine }

// TickSLO runs one evaluation pass (no-op without objectives).
func (f *Front) TickSLO() {
	if f.sloEngine != nil {
		f.sloEngine.Tick()
	}
}

// Registry returns the fleet metrics registry backing /metrics and
// /stats.
func (f *Front) Registry() *obs.Registry { return f.reg }

// Ring returns the current ring snapshot.
func (f *Front) Ring() *Ring { return f.ring.Load() }

// AddReplica registers a replica under a stable ring name and rebuilds
// the ring. The name is the placement identity: keep it stable across
// process restarts and canary cutovers, or the keyspace reshuffles.
func (f *Front) AddReplica(name, url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.replicas[name]; ok {
		return fmt.Errorf("fleet: replica %q already registered", name)
	}
	ring, err := f.ring.Load().With(name)
	if err != nil {
		return err
	}
	r := &Replica{name: name}
	r.url.Store(url)
	r.breaker = route.NewBreaker(f.cfg.Breaker, f.clock)
	suffix := name
	r.sent = f.reg.Counter("emfleet_replica_"+suffix+"_sent_total", "sub-requests sent to "+name)
	r.failures = f.reg.Counter("emfleet_replica_"+suffix+"_failures_total", "failed sub-requests to "+name)
	r.sheds = f.reg.Counter("emfleet_replica_"+suffix+"_sheds_total", "429/503 shed responses from "+name)
	r.hedgesWon = f.reg.Counter("emfleet_replica_"+suffix+"_hedge_wins_total", "hedge sub-requests "+name+" answered first")
	r.probes = f.reg.Counter("emfleet_replica_"+suffix+"_probes_total", "health probes sent to "+name)
	r.probeFails = f.reg.Counter("emfleet_replica_"+suffix+"_probe_failures_total", "health probes "+name+" failed")
	r.ejections = f.reg.Counter("emfleet_replica_"+suffix+"_ejections_total", "breaker trips ejecting "+name)
	r.breaker.OnTransition(func(_, to route.State) {
		if to == route.Open {
			r.ejections.Inc()
		}
	})
	f.replicas[name] = r
	f.ring.Store(ring)
	return nil
}

// RemoveReplica drops a replica from the ring (planned removal — its
// keys redistribute to the survivors).
func (f *Front) RemoveReplica(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.replicas[name]; !ok {
		return fmt.Errorf("fleet: unknown replica %q", name)
	}
	ring, err := f.ring.Load().Without(name)
	if err != nil {
		return err
	}
	delete(f.replicas, name)
	f.ring.Store(ring)
	return nil
}

// Replica returns the named replica, or nil.
func (f *Front) Replica(name string) *Replica {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.replicas[name]
}

func (f *Front) healthyCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, r := range f.replicas {
		if r.breaker.State() != route.Open {
			n++
		}
	}
	return n
}

// Close stops the probe loop and waits out any in-flight canary
// mirrors (each bounded by mirrorTimeout). It does not touch the
// replicas — the front never owns replica processes, only routes to
// them.
func (f *Front) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	f.mirrors.Wait()
}

// probeLoop periodically probes every replica and ticks the SLO engine.
func (f *Front) probeLoop(interval time.Duration) {
	defer f.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.ProbeAll(context.Background())
			f.TickSLO()
		}
	}
}

// ProbeAll health-probes every replica once, driving each breaker's
// full lifecycle: failures trip it (ejection), the post-cooldown probe
// is the half-open admission, and its success re-closes the breaker
// (re-admission). The request path never mutates breaker state beyond
// Closed-state bookkeeping, so probes alone own recovery — deterministic
// under an injected clock.
func (f *Front) ProbeAll(ctx context.Context) {
	f.mu.RLock()
	reps := make([]*Replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		reps = append(reps, r)
	}
	f.mu.RUnlock()
	for _, r := range reps {
		if !r.breaker.Allow() {
			continue // open and cooling: no probe yet
		}
		r.probes.Inc()
		err := f.transport.Healthz(ctx, r.URL())
		if err != nil {
			r.probeFails.Inc()
		}
		r.breaker.Record(err)
	}
}

// group is one request's sub-batch bound for a single replica.
type group struct {
	rep   *Replica
	pairs []record.Pair
	slots []int    // positions in the caller's result
	khs   []uint64 // ring key hashes, aligned with pairs
}

// choose walks keyHash's successor chain and picks the replica the pair
// should be sent to: the first member that is neither ejected (breaker
// Open) nor shed-penalized for this key. A penalized replica diverts
// only ShedDivertPermille of its keys — a down-weight, not an ejection.
// When every member is ejected the owner is returned anyway: sending a
// doomed request gives the caller a real error instead of a silent drop.
func (f *Front) choose(keyHash uint64, ring *Ring, succ []string) (*Replica, bool) {
	succ = ring.Successors(keyHash, succ)
	now := f.clock.Now()
	diverted := false
	for i, name := range succ {
		r := f.replicas[name]
		if r == nil {
			continue
		}
		if r.breaker.State() == route.Open {
			continue
		}
		if r.penalizedAt(now) && int(mix64(keyHash^divertSalt)%1000) < f.cfg.ShedDivertPermille {
			// Down-weighted: this key diverts for the penalty window,
			// unless every later member is also out (then it sticks).
			if i < len(succ)-1 {
				diverted = true
				continue
			}
		}
		return r, diverted
	}
	if len(succ) > 0 {
		if r := f.replicas[succ[0]]; r != nil {
			return r, false
		}
	}
	return nil, false
}

// Submit routes pairs through the fleet: keys are hashed onto the ring,
// the batch splits into per-replica sub-batches, sub-batches fan out
// concurrently (with hedging and failover), and the responses
// reassemble in the caller's order. deadlineMs (0 = none) bounds the
// whole call and is forwarded to the replicas.
func (f *Front) Submit(ctx context.Context, pairs []record.Pair, deadlineMs int) (*serve.MatchResult, error) {
	if len(pairs) == 0 {
		return &serve.MatchResult{}, nil
	}
	if len(pairs) > f.cfg.MaxPairsPerRequest {
		return nil, serve.ErrTooLarge
	}
	ctx, cancel := serve.WithDeadline(ctx, deadlineMs, 0)
	defer cancel()
	f.metrics.requests.Inc()
	ring := f.ring.Load()
	if ring.Len() == 0 {
		f.metrics.errors.Inc()
		return nil, fmt.Errorf("fleet: no replicas: %w", backend.ErrUnavailable)
	}
	start := time.Now()

	// Assign every pair to a replica. Assignment reads replica health,
	// so hold the membership read lock across the walk.
	f.mu.RLock()
	groups := make([]*group, 0, 4)
	byRep := make(map[*Replica]*group, 4)
	var keyBuf []byte
	keyOpts := serve.CanonicalKeyOptions(nil)
	succ := make([]string, 0, ring.Len())
	for i, p := range pairs {
		keyBuf = serve.AppendPairKey(keyBuf[:0], p, keyOpts)
		kh := KeyHash(keyBuf)
		rep, diverted := f.choose(kh, ring, succ)
		if rep == nil {
			f.mu.RUnlock()
			f.metrics.errors.Inc()
			return nil, fmt.Errorf("fleet: no route for pair %d: %w", i, backend.ErrUnavailable)
		}
		if diverted {
			f.metrics.diverts.Inc()
		}
		g := byRep[rep]
		if g == nil {
			g = &group{rep: rep}
			byRep[rep] = g
			groups = append(groups, g)
		}
		g.pairs = append(g.pairs, p)
		g.slots = append(g.slots, i)
		g.khs = append(g.khs, kh)
	}
	f.mu.RUnlock()

	res := &serve.MatchResult{Preds: make([]bool, len(pairs)), Cached: make([]bool, len(pairs))}
	var costMicro, tokens atomic.Int64
	// First group error wins. A mutex, not atomic.Value: sub-batches
	// fail with differently-typed errors (%w wraps vs plain fmt.Errorf),
	// and atomic.Value panics on inconsistently typed stores.
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, g := range groups {
		g := g
		run := func() {
			if err := f.sendGroup(ctx, ring, g, deadlineMs, res, &costMicro, &tokens); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}
		if len(groups) == 1 {
			run()
		} else {
			wg.Add(1)
			go func() { defer wg.Done(); run() }()
		}
	}
	wg.Wait()
	if firstErr != nil {
		f.metrics.errors.Inc()
		return nil, firstErr
	}
	res.CostUSD = float64(costMicro.Load()) / 1e6
	res.Tokens = int(tokens.Load())
	f.metrics.requestsOK.Inc()
	f.metrics.pairs.Add(int64(len(pairs)))
	f.metrics.latency.ObserveDuration(time.Since(start))
	return res, nil
}

// sendGroup delivers one sub-batch: the chosen replica first, then ring
// successors on failure (failover), with a hedge racing any straggling
// attempt. On success the predictions land in res at the group's slots
// and, when a canary is active and the incumbent answered, a
// deterministic sample of the group is mirrored for the bit-identity
// check.
func (f *Front) sendGroup(ctx context.Context, ring *Ring, g *group, deadlineMs int, res *serve.MatchResult, costMicro, tokens *atomic.Int64) error {
	body := wire.AppendRequest(nil, g.pairs, deadlineMs)

	// Candidate chain: the chosen replica, then every other member in
	// ring order from the group's first key. The chosen replica may
	// itself be a successor (divert/ejection), so dedupe against it.
	f.mu.RLock()
	names := ring.Successors(g.khs[0], make([]string, 0, ring.Len()))
	chain := make([]*Replica, 0, len(names))
	chain = append(chain, g.rep)
	for _, name := range names {
		if r := f.replicas[name]; r != nil && r != g.rep {
			chain = append(chain, r)
		}
	}
	f.mu.RUnlock()

	var lastErr error
	for i, rep := range chain {
		if i > 0 {
			// Skip ejected successors during failover, but never skip the
			// last candidate: a full sweep of open breakers still deserves
			// one real attempt.
			if rep.breaker.State() == route.Open && i < len(chain)-1 {
				continue
			}
			f.metrics.failovers.Inc()
		}
		wr, from, err := f.sendHedged(ctx, rep, chain[i+1:], body)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if len(wr.Preds) != len(g.pairs) {
			lastErr = fmt.Errorf("fleet: replica %s answered %d predictions for %d pairs", from.name, len(wr.Preds), len(g.pairs))
			from.failures.Inc()
			from.breaker.NoteFailure()
			continue
		}
		for j, slot := range g.slots {
			res.Preds[slot] = wr.Preds[j]
			res.Cached[slot] = wr.Cached[j]
		}
		costMicro.Add(int64(wr.CostUSD * 1e6))
		tokens.Add(int64(wr.Tokens))
		f.mirror(g, from, wr.Preds, deadlineMs)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no replica available: %w", backend.ErrUnavailable)
	}
	return lastErr
}

// sendResult is one sub-request's outcome in the hedge race.
type sendResult struct {
	wr   *wire.Response
	from *Replica
	err  error
}

// sendHedged sends body to rep; when the attempt straggles past the
// hedge threshold and a successor exists, a hedge request races it and
// the first success wins. Both outcomes feed the replicas' Closed-state
// breaker bookkeeping.
func (f *Front) sendHedged(ctx context.Context, rep *Replica, successors []*Replica, body []byte) (*wire.Response, *Replica, error) {
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
		r := f.sendOnce(ctx, rep, body)
		return r.wr, r.from, r.err
	}

	ch := make(chan sendResult, 2)
	go func() { ch <- f.sendOnce(ctx, rep, body) }()
	timer := time.NewTimer(threshold)
	defer timer.Stop()
	var first sendResult
	select {
	case first = <-ch:
		if first.err == nil {
			return first.wr, first.from, nil
		}
		return nil, first.from, first.err
	case <-timer.C:
		// Straggler: issue the hedge, take the first finisher that
		// succeeded (falling back to the second if the first errored).
		f.metrics.hedges.Inc()
		go func() { ch <- f.sendOnce(ctx, hedge, body) }()
		first = <-ch
		if first.err == nil {
			if first.from == hedge {
				f.metrics.hedgeWins.Inc()
				hedge.hedgesWon.Inc()
			}
			return first.wr, first.from, nil
		}
		second := <-ch
		if second.err == nil {
			if second.from == hedge {
				f.metrics.hedgeWins.Inc()
				hedge.hedgesWon.Inc()
			}
			return second.wr, second.from, nil
		}
		return nil, first.from, first.err
	case <-ctx.Done():
		return nil, rep, ctx.Err()
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
func (f *Front) sendOnce(ctx context.Context, rep *Replica, body []byte) sendResult {
	rep.sent.Inc()
	f.metrics.fanouts.Inc()
	t0 := time.Now()
	status, resp, err := f.transport.Match(ctx, rep.URL(), body)
	f.metrics.subLatency.ObserveDuration(time.Since(t0))
	if err != nil {
		rep.failures.Inc()
		rep.breaker.NoteFailure()
		return sendResult{from: rep, err: fmt.Errorf("fleet: %s: %w", rep.name, err)}
	}
	switch status {
	case http.StatusOK:
		wr := new(wire.Response)
		if perr := serve.ParseWireResponse(resp, wr); perr != nil {
			rep.failures.Inc()
			rep.breaker.NoteFailure()
			return sendResult{from: rep, err: fmt.Errorf("fleet: %s: %w", rep.name, perr)}
		}
		rep.breaker.NoteSuccess()
		return sendResult{wr: wr, from: rep}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		rep.sheds.Inc()
		rep.shedUntil.Store(int64(f.clock.Now() + f.cfg.ShedPenalty))
		rep.breaker.NoteFailure()
		shed := backend.ErrOverloaded
		if status == http.StatusServiceUnavailable {
			shed = backend.ErrUnavailable
		}
		return sendResult{from: rep, err: fmt.Errorf("fleet: %s shed with %d: %w", rep.name, status, shed)}
	default:
		rep.failures.Inc()
		rep.breaker.NoteFailure()
		return sendResult{from: rep, err: fmt.Errorf("fleet: %s answered status %d", rep.name, status)}
	}
}
