package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/slo"
)

// Transport is how the front reaches a replica. Production uses the
// pooled HTTPTransport; tests inject stubs with scripted failures and
// latencies so failover, hedging and ejection trajectories are
// deterministic.
type Transport interface {
	// Match posts one wire-framed /match body to the replica and returns
	// the HTTP status plus the raw response frame. body is the front's
	// pooled sub-frame: once Match returns a status (err == nil) it must
	// no longer read body; after an error it may, and the front drops the
	// buffer instead of reusing it.
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

// placement is one membership snapshot: the ring and the replica behind
// each member, reps[i] serving ring.members[i]. A membership change swaps
// in a new placement, so the request path reads both lock-free and never
// sees one without the other.
type placement struct {
	ring *Ring
	reps []*Replica
}

// index returns the position of the member named name, or -1.
func (p *placement) index(name string) int {
	i := sort.SearchStrings(p.ring.members, name)
	if i < len(p.ring.members) && p.ring.members[i] == name {
		return i
	}
	return -1
}

// replica returns the member named name, or nil.
func (p *placement) replica(name string) *Replica {
	if i := p.index(name); i >= 0 {
		return p.reps[i]
	}
	return nil
}

// rebuilt returns the placement over ring, keeping the replicas of the
// members p already has and taking added for the one it has not.
func (p *placement) rebuilt(ring *Ring, added *Replica) *placement {
	np := &placement{ring: ring, reps: make([]*Replica, len(ring.members))}
	for i, name := range ring.members {
		if np.reps[i] = p.replica(name); np.reps[i] == nil {
			np.reps[i] = added
		}
	}
	return np
}

// Front is the fleet router: it owns the ring, the replica set and the
// fan-out machinery. Create with New, add replicas, serve HTTP via
// Handler, stop with Close.
type Front struct {
	cfg       Config
	clock     clock.Clock
	transport Transport

	place atomic.Pointer[placement]
	mu    sync.Mutex // serialises membership and canary changes

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
		started:   time.Now(),
		stop:      make(chan struct{}),
		reg:       obs.NewRegistry(obs.Label{Key: "fleet", Value: cfg.MatcherName}),
	}
	f.place.Store(&placement{ring: ring})
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
		return float64(f.Ring().Len())
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
	var n int64
	for _, r := range f.place.Load().reps {
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
func (f *Front) Ring() *Ring { return f.place.Load().ring }

// AddReplica registers a replica under a stable ring name and rebuilds
// the ring. The name is the placement identity: keep it stable across
// process restarts and canary cutovers, or the keyspace reshuffles.
func (f *Front) AddReplica(name, url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	pl := f.place.Load()
	if pl.replica(name) != nil {
		return fmt.Errorf("fleet: replica %q already registered", name)
	}
	ring, err := pl.ring.With(name)
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
	f.place.Store(pl.rebuilt(ring, r))
	return nil
}

// RemoveReplica drops a replica from the ring (planned removal — its
// keys redistribute to the survivors).
func (f *Front) RemoveReplica(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	pl := f.place.Load()
	if pl.replica(name) == nil {
		return fmt.Errorf("fleet: unknown replica %q", name)
	}
	ring, err := pl.ring.Without(name)
	if err != nil {
		return err
	}
	f.place.Store(pl.rebuilt(ring, nil))
	return nil
}

// Replica returns the named replica, or nil.
func (f *Front) Replica(name string) *Replica { return f.place.Load().replica(name) }

func (f *Front) healthyCount() int {
	n := 0
	for _, r := range f.place.Load().reps {
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
	for _, r := range f.place.Load().reps {
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
