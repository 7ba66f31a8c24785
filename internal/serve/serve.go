// Package serve is the online face of the reproduction: an entity-matching
// service that loads any matcher from the study and answers match requests
// over HTTP — the workload the ROADMAP's "heavy traffic" north star asks
// for, and the deployment scenario whose per-pair cost and latency the
// paper's Table 6 prices offline.
//
// The serving core has three load-bearing pieces:
//
//   - A micro-batching dispatcher (dispatch.go): concurrent requests enter
//     one bounded admission queue; pool workers drain the queue and
//     coalesce waiting pairs into bounded batches, so under load each
//     matcher invocation amortises its fixed costs over many pairs while
//     light traffic still sees single-pair latency.
//
//   - A sharded LRU prediction cache (cache.go) keyed by the canonical
//     serialized pair. A hit skips serialization, text profiling,
//     featurization and the model call entirely — and costs zero dollars
//     on prompted matchers. The serialize cache (internal/record) and the
//     process-wide text-profile cache (internal/textsim) sit underneath
//     for the misses, so even cold pairs never re-serialize or re-profile
//     hot records.
//
//   - Admission control: a bounded queue that sheds load with 429 when
//     full, per-request deadlines that fail queued work with 503 instead
//     of serving stale answers, context-propagated cancellation via
//     matchers.PredictCtx (the cancellation path shared with cmd/emmatch),
//     and graceful shutdown that drains in-flight batches before the
//     listener closes.
//
// # Serving semantics
//
// Offline, the study scores whole candidate sets in one batch, and some
// matchers are batch-sensitive: the prompted LLMs place their decision
// threshold adaptively from the batch's score distribution, and ZeroER
// fits its mixture on the full batch. Online traffic has no natural batch,
// so the service fixes the semantics per matcher class (SemanticsFor):
//
//   - Batch-invariant matchers (StringSim and the fine-tuned SLMs) score
//     each pair independently, so micro-batching is a pure optimisation:
//     predictions are bit-identical whether pairs arrive one at a time,
//     in one request, or coalesced — and identical to offline cmd/emmatch
//     output for the same pairs.
//
//   - Batch-sensitive prompted matchers (MatchGPT models, Jellyfish) are
//     served under single-pair semantics: every pair is scored as its own
//     batch of one, making the decision a deterministic function of the
//     pair alone — cacheable, and independent of request grouping.
//
//   - ZeroER is batch-only (its mixture needs the batch's similarity
//     distribution — a drawback the paper documents), so each request is
//     scored as its own batch and results bypass the prediction cache.
package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cost"
	"repro/internal/flight"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/slo"
	"repro/internal/textsim"
	"repro/internal/wire"
)

// Semantics fixes how a matcher's offline batch behaviour maps onto
// online traffic; see the package comment.
type Semantics int

const (
	// SemBatchInvariant marks per-pair-decomposable matchers: coalesced
	// micro-batches are scored in one Predict call with bit-identical
	// results to any other grouping.
	SemBatchInvariant Semantics = iota
	// SemSinglePair marks batch-sensitive prompted matchers: each pair is
	// scored as its own batch of one, so decisions depend only on the pair.
	SemSinglePair
	// SemRequestBatch marks batch-only matchers (ZeroER): the client's
	// request is the batch; results are not per-pair deterministic and
	// bypass the prediction cache.
	SemRequestBatch
)

// String returns the semantics name used by /healthz and /stats.
func (s Semantics) String() string {
	switch s {
	case SemBatchInvariant:
		return "batch-invariant"
	case SemSinglePair:
		return "single-pair"
	case SemRequestBatch:
		return "request-batch"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// SemanticsFor classifies a registry matcher name.
func SemanticsFor(name string) Semantics {
	switch strings.ToLower(name) {
	case "zeroer":
		return SemRequestBatch
	case "stringsim", "ditto", "unicorn", "anymatch-gpt2", "anymatch-t5", "anymatch-llama":
		return SemBatchInvariant
	default:
		// Prompted LLM matchers: batch-adaptive thresholds make them
		// batch-sensitive offline, so they serve under single-pair
		// semantics.
		return SemSinglePair
	}
}

// Config parameterises a Server.
type Config struct {
	// MatcherName is the registry name the matcher was built from; it
	// selects serving semantics and the pricing model. Required.
	MatcherName string
	// Semantics overrides SemanticsFor(MatcherName) when non-nil (tests
	// inject stub matchers with explicit semantics).
	Semantics *Semantics

	// Workers is the scoring pool size; <=0 means one per CPU
	// (par.Workers).
	Workers int
	// MaxBatch bounds how many pairs a worker coalesces into one matcher
	// invocation; <=0 defaults to 64.
	MaxBatch int
	// BatchWait is how long a worker holding a non-full batch waits for
	// stragglers before scoring. Zero (the default) never waits: light
	// traffic gets immediate single-pair latency, heavy traffic fills
	// batches from the queue alone.
	BatchWait time.Duration
	// QueueDepth bounds the admission queue in requests; <=0 defaults to
	// 1024. A full queue sheds load with 429.
	QueueDepth int
	// MaxPairsPerRequest bounds one request's batch; <=0 defaults to 256.
	// Larger requests are rejected with 413.
	MaxPairsPerRequest int
	// DefaultDeadline bounds request latency when the client sets no
	// deadline_ms; zero means no default deadline.
	DefaultDeadline time.Duration
	// CacheCapacity is the prediction-cache size in entries; <=0 disables
	// caching.
	CacheCapacity int

	// Tracer, when non-nil, records request/queue/batch/score spans for
	// every admitted request. Tracing never changes predictions; it only
	// observes.
	Tracer *obs.Tracer

	// Registry, when non-nil, is used instead of a freshly created
	// metrics registry — so a caller that wires other subsystems (e.g. a
	// snapshot store opened before the server exists) can expose all
	// metrics on one /metrics page.
	Registry *obs.Registry

	// Startup, when non-nil, describes how the served matcher came to be
	// ready (trained from scratch vs restored from a snapshot store); it
	// is exposed as emserve_startup_* gauges.
	Startup *StartupInfo

	// Router, when non-nil, scores traffic through the resilient routing
	// cascade (internal/route) instead of calling the matcher directly:
	// per-tier retries, circuit breakers, hedging, and per-attempt Table-6
	// cost accounting. Routed serving is batch-invariant by construction
	// (every pair is routed independently), so Router forces
	// SemBatchInvariant, and the server's own per-pair pricing is disabled
	// — the router already charges every attempt, including failed ones.
	// Admission shed signals feed the router's entry-tier breaker.
	Router *route.Router

	// SLOSpecs, when non-empty, builds the burn-rate SLO engine
	// (internal/slo) over the server's own metrics: latency-quantile
	// ceilings bind the request latency histogram, shed/error ratios the
	// admission counters, cost budgets the priced (and routed) bill.
	// F1 floors are rejected — serving traffic is unlabeled.
	SLOSpecs []slo.Spec
	// SLOClock drives the engine; nil means the real clock. Tests inject
	// a clock.Virtual.
	SLOClock clock.Clock
	// SLOResolution overrides the engine's sample spacing; <=0 derives
	// it from the tightest short window (five samples per window,
	// clamped to [50ms, 1s]).
	SLOResolution time.Duration
	// SLOTick is the background evaluation interval: 0 ticks at the
	// engine resolution, <0 starts no loop (tests call TickSLO under a
	// virtual clock), >0 overrides.
	SLOTick time.Duration
	// BreachShedPermille is the admission-guard strength: while any
	// objective is in BREACH, this fraction (per mille) of new
	// cache-miss requests is shed with 429 before queueing. 0 disables
	// the guard — the engine then only observes.
	BreachShedPermille int
	// OnSLOTransition, when non-nil, is called on every objective state
	// change, after the server's own breach handling.
	OnSLOTransition func(slo.Transition)

	// Flight, when non-nil, receives one compact record per request
	// (internal/flight): cache hits, sheds, expiries and scored requests
	// alike, written lock-free from the dispatcher.
	Flight *flight.Recorder
	// FlightDump, when non-nil, snapshots Flight's ring to JSONL on SLO
	// breach transitions and on p99-straggler requests.
	FlightDump *flight.Dumper
}

// StartupInfo records the cold-train vs warm-restore outcome of matcher
// startup, surfaced on /metrics so operators can see what a restart
// would cost.
type StartupInfo struct {
	// Warm reports the matcher was restored from a snapshot instead of
	// trained.
	Warm bool
	// TrainSeconds is the training wall time (zero on warm starts).
	TrainSeconds float64
	// RestoreSeconds is the snapshot load+restore wall time (zero on
	// cold starts).
	RestoreSeconds float64
	// SnapshotHash is the content address the matcher was restored from
	// or saved to (empty when no store is in play).
	SnapshotHash string
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxPairsPerRequest <= 0 {
		c.MaxPairsPerRequest = 256
	}
	c.Workers = par.Workers(c.Workers)
	return c
}

// Server is one loaded matcher behind the serving pipeline. Create with
// New, serve HTTP via Handler, stop with Shutdown.
type Server struct {
	cfg       Config
	matcher   matchers.Matcher
	semantics Semantics
	router    *route.Router

	// pricing, when non-zero, prices every scored pair at rate dollars per
	// 1K input tokens (prompted matchers only).
	pricingModel string
	pricingRate  float64

	cache    *PredCache
	sercache *record.SerializeCache
	profiles *textsim.ProfileCache
	opts     record.SerializeOptions

	queue chan *request
	// admit guards the draining flag against the queue close in Shutdown:
	// senders hold it shared, Shutdown takes it exclusively to flip
	// draining, after which no sender can be mid-send.
	admit    sync.RWMutex
	draining bool
	workers  sync.WaitGroup

	reg     *obs.Registry
	metrics metrics
	started time.Time

	// SLO machinery (nil/zero when Config.SLOSpecs is empty): the
	// burn-rate engine, the stop signal of its tick loop, and the
	// admission-guard strength in effect (permille of cache-miss
	// requests shed while breached; 0 when healthy).
	sloEngine *slo.Engine
	sloStop   chan struct{}
	preShed   atomic.Int64
	preShedN  atomic.Uint64

	// flight recorder + breach/straggler evidence dumper (nil disabled).
	flight *flight.Recorder
	fdump  *flight.Dumper
}

// New wraps a trained matcher in the serving pipeline and starts its
// worker pool. The matcher must be ready to predict (fine-tuned matchers
// train before serving, exactly like cmd/emmatch) and its Predict must be
// safe for concurrent use after training — true of every study matcher,
// whose post-training state is read-only over the concurrency-safe shared
// caches.
func New(m matchers.Matcher, cfg Config) (*Server, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil matcher")
	}
	cfg = cfg.withDefaults()
	sem := SemanticsFor(cfg.MatcherName)
	if cfg.Semantics != nil {
		sem = *cfg.Semantics
	}
	if cfg.Router != nil {
		// Routed pairs are decided independently, so the grouping provably
		// cannot change decisions: batch-invariant by construction.
		sem = SemBatchInvariant
	}
	s := &Server{
		cfg:       cfg,
		matcher:   m,
		semantics: sem,
		router:    cfg.Router,
		cache:     NewPredCache(cfg.CacheCapacity, defaultCacheShards),
		sercache:  record.NewSerializeCache(),
		profiles:  textsim.Shared(),
		queue:     make(chan *request, cfg.QueueDepth),
		started:   time.Now(),
	}
	// Canonical serialization for serving: schema order, default
	// separator, memoised through the shared serialize cache so repeated
	// records never re-serialize.
	s.opts = CanonicalKeyOptions(s.sercache)
	// Routed servers skip their own pricing: the router charges every
	// attempt (retries and hedges included) through cost.RateForMatcher,
	// and pricing the delivered pair here would double-bill it.
	if model := matchers.PricingModel(cfg.MatcherName); model != "" && s.router == nil {
		rate, err := cost.ServingRate(model)
		if err != nil {
			return nil, fmt.Errorf("serve: pricing %s: %w", cfg.MatcherName, err)
		}
		s.pricingModel, s.pricingRate = model, rate
	}
	if cfg.Registry != nil {
		s.reg = cfg.Registry
	} else {
		s.reg = obs.NewRegistry(obs.Label{Key: "matcher", Value: m.Name()})
	}
	s.metrics.init(s.reg, cfg.MaxBatch)
	if cfg.Startup != nil {
		startup := *cfg.Startup // copy: the gauges outlive the caller's struct
		s.reg.GaugeFunc("emserve_startup_warm", "1 when the matcher was restored from a snapshot, 0 when trained", func() float64 {
			if startup.Warm {
				return 1
			}
			return 0
		})
		s.reg.GaugeFunc("emserve_startup_train_seconds", "matcher training wall time at startup", func() float64 {
			return startup.TrainSeconds
		})
		s.reg.GaugeFunc("emserve_startup_restore_seconds", "snapshot restore wall time at startup", func() float64 {
			return startup.RestoreSeconds
		})
	}
	// Read-at-exposition metrics: queue depth and cache effectiveness come
	// straight from their owners, priced dollars derive from the token
	// counter so the exposed value can never drift from /stats.
	s.reg.GaugeFunc("emserve_queue_depth", "requests waiting for a worker", func() float64 {
		return float64(s.QueueDepth())
	})
	s.reg.GaugeFunc("emserve_cache_len", "prediction-cache entries", func() float64 {
		return float64(s.cache.Len())
	})
	s.reg.CounterFunc("emserve_cache_hits_total", "prediction-cache hits", func() float64 {
		hits, _ := s.cache.Stats()
		return float64(hits)
	})
	s.reg.CounterFunc("emserve_cache_misses_total", "prediction-cache misses", func() float64 {
		_, misses := s.cache.Stats()
		return float64(misses)
	})
	s.reg.CounterFunc("emserve_cost_usd_total", "Table-6 dollars across scored pairs", func() float64 {
		return cost.Dollars(s.metrics.scoredTokens.Load(), s.pricingRate)
	})
	if s.router != nil {
		// The router's per-tier attempt/retry/breaker metrics live in its
		// own registry (pass the same Registry to route.New and serve.New
		// to expose everything on one /metrics page); the server adds only
		// the aggregate bill, mirroring emserve_cost_usd_total.
		s.reg.CounterFunc("emserve_routed_cost_usd_total", "Table-6 dollars across all routed attempts, failures and hedges included", s.router.TotalCostUSD)
		s.reg.CounterFunc("emserve_routed_tokens_total", "billed input tokens across all routed attempts", func() float64 {
			return float64(s.router.TotalTokens())
		})
	}
	obs.PublishExpvar("emserve", s.reg)
	s.flight = cfg.Flight
	s.fdump = cfg.FlightDump
	if err := s.initSLO(); err != nil {
		return nil, err
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if s.sloEngine != nil && cfg.SLOTick >= 0 {
		tick := cfg.SLOTick
		if tick <= 0 {
			tick = s.sloEngine.Resolution()
		}
		s.sloStop = make(chan struct{})
		s.workers.Add(1)
		go s.sloLoop(tick)
	}
	return s, nil
}

// Matcher returns the served matcher.
func (s *Server) Matcher() matchers.Matcher { return s.matcher }

// Semantics returns the serving semantics in effect.
func (s *Server) Semantics() Semantics { return s.semantics }

// Cache returns the prediction cache (for tests and the load generator).
func (s *Server) Cache() *PredCache { return s.cache }

// Registry returns the server's metrics registry — the backing store of
// /metrics, /debug/vars and /stats.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the span tracer configured at construction, or nil.
func (s *Server) Tracer() *obs.Tracer { return s.cfg.Tracer }

// Shutdown drains the admission queue and in-flight batches, then stops
// the worker pool. New requests are rejected with 503 the moment it is
// called; requests already admitted complete normally. Safe to call once.
func (s *Server) Shutdown() {
	s.admit.Lock()
	already := s.draining
	s.draining = true
	s.admit.Unlock()
	if already {
		return
	}
	// No sender can be mid-send now: enqueue() checks draining under the
	// shared lock and we just held it exclusively.
	close(s.queue)
	if s.sloStop != nil {
		close(s.sloStop)
	}
	s.workers.Wait()
}

// keySep separates the two serialized records inside a canonical pair key.
// It is unprintable, so it cannot collide with serialized record content.
const keySep = '\x1f'

// appendKey appends a pair's canonical cache key to dst: each record's
// values joined with the default separator, the two records joined with
// keySep — exactly what serving serialization (schema order, default
// separator) renders. It is the only key builder: JSON records, frame
// views and the fleet's ring hash all see these bytes, so a pair owns one
// cache entry and one ring position whichever protocol or process
// computed it.
func appendKey[V string | []byte](dst []byte, left, right []V) []byte {
	dst = appendValues(dst, left)
	dst = append(dst, keySep)
	return appendValues(dst, right)
}

func appendValues[V string | []byte](dst []byte, vals []V) []byte {
	for i, val := range vals {
		if i > 0 {
			dst = append(dst, record.DefaultSeparator...)
		}
		dst = append(dst, val...)
	}
	return dst
}

// AppendPairKey appends p's canonical serving cache key to dst —
// byte-identical to the server's own cache keys on either protocol. The
// fleet router partitions its consistent-hash keyspace on exactly these
// bytes. Serving keys have one canonical form, so the options argument is
// not consulted; it stays in the signature for callers that pass
// CanonicalKeyOptions.
func AppendPairKey(dst []byte, p record.Pair, _ record.SerializeOptions) []byte {
	return appendKey(dst, p.Left.Values, p.Right.Values)
}

// AppendViewKey is AppendPairKey for a decoded frame pair: the same bytes,
// built straight off the frame views without materialising the pair.
func AppendViewKey(dst []byte, v *wire.PairView) []byte {
	return appendKey(dst, v.Left, v.Right)
}

// CanonicalKeyOptions returns the serialization options serving scores
// under (schema order, default separator) memoised through cache; nil
// means uncached. Cache keys are the same rendering, built by appendKey
// without the memo.
func CanonicalKeyOptions(cache *record.SerializeCache) record.SerializeOptions {
	return record.SerializeOptions{Separator: record.DefaultSeparator, Cache: cache}
}

// cacheable reports whether served decisions flow through the prediction
// cache (request-batch matchers bypass it; capacity 0 disables it).
func (s *Server) cacheable() bool {
	return s.semantics != SemRequestBatch && s.cfg.CacheCapacity > 0
}

// pairCost returns the dollar cost of scoring one pair, and the token
// count it contributes (zero for unpriced matchers).
func (s *Server) pairCost(p record.Pair) (dollars float64, tokens int) {
	if s.pricingRate == 0 {
		return 0, 0
	}
	t := cost.PairTokens(p, s.opts)
	return cost.Dollars(int64(t), s.pricingRate), t
}
