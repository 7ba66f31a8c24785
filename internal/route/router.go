// Package route is the production routing layer over internal/backend:
// per-tier retries with exponential backoff and deterministic jitter,
// per-backend circuit breakers, deadline-aware hedging, and a
// confidence-threshold cascade that escalates only low-confidence pairs
// up a cheap→expensive tier list, charging every attempt — retries,
// hedges and failures included — through the Table-6 cost model.
//
// All timing flows through a Clock and all randomness through hashes of
// the call's bytes, so a routing experiment on the virtual clock replays
// bit-identically at any parallelism.
package route

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/cost"
	"repro/internal/flight"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/textsim"
)

// Config parameterizes a Router.
type Config struct {
	// Confidence is the cascade escalation threshold: a tier's decision
	// with confidence >= Confidence (or with no confidence score at all)
	// is final; below it the pair escalates to the next tier. 0 never
	// escalates on confidence; a value > 1 always escalates.
	Confidence float64
	// Retry configures per-tier retries of retryable errors.
	Retry RetryConfig
	// Breaker configures the per-backend circuit breakers.
	Breaker BreakerConfig
	// HedgeAfter, when positive, hedges any attempt whose provider
	// latency exceeds it: a second deterministic attempt is issued (and
	// charged), and the pair's latency becomes the earlier finisher.
	HedgeAfter time.Duration
	// Deadline, when positive, bounds one pair's total routing time: a
	// retry whose backoff would overrun it fails the tier with
	// backend.ErrDeadline instead of sleeping.
	Deadline time.Duration
	// Clock drives latencies, backoffs and breaker cooldowns. Defaults
	// to the real clock; experiments inject a clock.Virtual.
	Clock clock.Clock
	// Registry receives the router's metrics. A private unexposed
	// registry is used when nil.
	Registry *obs.Registry
	// Flight, when non-nil, receives one per-pair flight record per
	// routed pair, timestamped on the router's clock — deterministic
	// under a virtual clock.
	Flight *flight.Recorder
}

// VirtualClock is clock.Virtual under its old name, kept only because
// benchmark/lodo.go writes `Clock: &route.VirtualClock{}` and benchmark/
// may not be edited alongside the code it measures; a later benchmark
// issue drops it.
type VirtualClock = clock.Virtual

// Outcome describes how one pair was routed.
type Outcome struct {
	// Match is the final decision.
	Match bool
	// Confidence is the deciding tier's confidence (-1 when the tier has
	// no confidence scorer or the decision came from the degraded
	// fallback).
	Confidence float64
	// Tier is the index of the deciding tier (-1 when every tier failed
	// and the degraded fallback decided).
	Tier int
	// Attempts counts backend calls across all tiers, hedges included.
	Attempts int
	// Retries counts backoff retries across all tiers.
	Retries int
	// Hedges counts hedge calls issued.
	Hedges int
	// Escalations counts confidence escalations (tier boundaries crossed
	// because the decision was low-confidence).
	Escalations int
	// Failovers counts tier boundaries crossed because a tier failed
	// (breaker open, retries exhausted, terminal error, deadline).
	Failovers int
	// Degraded marks that every tier failed and the decision came from
	// the parameter-free matchers.CheapScore fallback.
	Degraded bool
	// Tokens and CostUSD are the Table-6 billing for every attempt this
	// pair caused, failures and hedges included.
	Tokens  int64
	CostUSD float64
	// Latency is the pair's total routing time on the router's clock,
	// backoffs included.
	Latency time.Duration
}

// tier is one rung of the cascade: a backend, its breaker, and its
// metric instruments.
type tier struct {
	backend  backend.Backend
	breaker  *Breaker
	rate     float64
	nameHash uint64

	attempts    *obs.Counter // backend calls, hedges included
	retries     *obs.Counter // backoff retries
	failures    *obs.Counter // tier-level terminal failures
	hedges      *obs.Counter // hedge calls issued
	decided     *obs.Counter // pairs finally decided by this tier
	transitions *obs.Counter // breaker state transitions
}

// Router routes pairs through a cheap→expensive backend cascade. It is
// safe for concurrent use; byte-identical replay additionally requires
// the virtual clock and per-pair outcomes independent of interleaving,
// which the hash-derived randomness guarantees.
type Router struct {
	cfg       Config
	clock     clock.Clock
	tiers     []*tier
	flightRec *flight.Recorder

	pairs       *obs.Counter
	escalations *obs.Counter
	failovers   *obs.Counter
	degraded    *obs.Counter
	latencyUS   *obs.Histogram // per-pair routing latency, µs
	costMicro   *obs.Histogram // per-pair cost, micro-dollars

	totalTokens atomic.Int64
	costNano    atomic.Int64 // accumulated cost in nano-dollars
}

// New builds a router over backends, ordered cheap to expensive.
func New(cfg Config, backends ...backend.Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("route: no backends")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	cfg.Retry = cfg.Retry.withDefaults()
	cfg.Breaker = cfg.Breaker.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		cfg:         cfg,
		clock:       cfg.Clock,
		flightRec:   cfg.Flight,
		pairs:       reg.Counter("route_pairs_total", "pairs routed"),
		escalations: reg.Counter("route_escalations_total", "low-confidence escalations to the next tier"),
		failovers:   reg.Counter("route_failovers_total", "tier failures forcing the next tier"),
		degraded:    reg.Counter("route_degraded_total", "pairs decided by the degraded fallback"),
		latencyUS:   reg.Log2Histogram("route_pair_latency_us", "per-pair routing latency (µs)"),
		costMicro:   reg.Log2Histogram("route_pair_cost_usd_micro", "per-pair routed cost (micro-dollars)"),
	}
	for _, b := range backends {
		suffix := sanitizeMetricName(b.Name())
		t := &tier{
			backend:  b,
			rate:     b.RatePer1K(),
			nameHash: textsim.TokenHash(b.Name()),
			attempts: reg.Counter("route_"+suffix+"_attempts_total", "backend calls, hedges included"),
			retries:  reg.Counter("route_"+suffix+"_retries_total", "backoff retries"),
			failures: reg.Counter("route_"+suffix+"_failures_total", "tier-level terminal failures"),
			hedges:   reg.Counter("route_"+suffix+"_hedges_total", "hedge calls issued"),
			decided:  reg.Counter("route_"+suffix+"_decided_total", "pairs finally decided by this tier"),
			transitions: reg.Counter("route_"+suffix+"_breaker_transitions_total",
				"circuit breaker state transitions"),
		}
		t.breaker = NewBreaker(cfg.Breaker, cfg.Clock)
		t.breaker.onTransition = func(_, _ State) { t.transitions.Inc() }
		r.tiers = append(r.tiers, t)
	}
	return r, nil
}

// sanitizeMetricName maps a backend name into a metric-name-safe token
// (gpt-3.5-turbo → gpt_3_5_turbo).
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for _, c := range strings.ToLower(s) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// routeScratch holds the single-pair prediction buffers; pooled so the
// all-cheap hot path allocates nothing per call.
type routeScratch struct {
	out  [1]bool
	conf [1]float64
}

var scratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// RoutePairs routes every pair of task independently through the
// cascade, appending one Outcome per pair to dst (reused when its
// capacity suffices) and returning the filled slice.
func (r *Router) RoutePairs(task matchers.Task, dst []Outcome) []Outcome {
	dst = dst[:0]
	sc := scratchPool.Get().(*routeScratch)
	defer scratchPool.Put(sc)
	sub := task
	for i := range task.Pairs {
		sub.Pairs = task.Pairs[i : i+1]
		var o Outcome
		r.routePair(sub, &o, sc)
		dst = append(dst, o)
	}
	return dst
}

// pairHash folds the pair's serialized bytes into the 64-bit identity
// the deterministic jitter draws mix from — same construction as
// backend.Sim's call hash, so determinism holds across layers.
func pairHash(p record.Pair, opts record.SerializeOptions) uint64 {
	h := textsim.TokenHash(record.SerializeRecord(p.Left, opts))
	return backend.Mix(h ^ textsim.TokenHash(record.SerializeRecord(p.Right, opts)))
}

// routePair walks one pair up the cascade.
func (r *Router) routePair(sub matchers.Task, o *Outcome, sc *routeScratch) {
	start := r.clock.Now()
	r.pairs.Inc()
	ph := pairHash(sub.Pairs[0], sub.Opts)
	o.Tier = -1
	o.Confidence = -1
	decided := false
	for ti, t := range r.tiers {
		err := r.callTier(t, sub, ph, start, o, sc)
		if err != nil {
			t.failures.Inc()
			if ti < len(r.tiers)-1 {
				o.Failovers++
				r.failovers.Inc()
			}
			continue
		}
		o.Match = sc.out[0]
		o.Confidence = sc.conf[0]
		o.Tier = ti
		decided = true
		// A tier with no confidence score (conf -1) is treated as fully
		// confident: there is nothing to compare against the threshold.
		if ti == len(r.tiers)-1 || sc.conf[0] < 0 || sc.conf[0] >= r.cfg.Confidence {
			t.decided.Inc()
			break
		}
		o.Escalations++
		r.escalations.Inc()
		decided = false
		o.Tier = -1
		o.Confidence = -1
	}
	if !decided {
		// Decision of last resort: every tier failed (or the last tier's
		// low-confidence answer was discarded by escalation — impossible,
		// the last tier always decides). Fall back to the parameter-free
		// cheap score so the service degrades instead of erroring.
		o.Degraded = true
		r.degraded.Inc()
		o.Match = matchers.CheapScore(sub.Pairs[0], sub.Opts) >= 0.5
		o.Confidence = -1
	}
	o.Latency = r.clock.Now() - start
	r.latencyUS.Observe(o.Latency.Microseconds())
	r.costMicro.Observe(int64(o.CostUSD * 1e6))
	if r.flightRec != nil {
		r.logFlight(ph, o)
	}
}

// callTier runs the retry/hedge loop of one tier for a single-pair
// subtask. On success sc holds the decision and confidence; the returned
// error is terminal for this tier (breaker open, retries exhausted,
// deadline, or a non-retryable backend error).
func (r *Router) callTier(t *tier, sub matchers.Task, ph uint64, start time.Duration, o *Outcome, sc *routeScratch) error {
	if !t.breaker.Allow() {
		return ErrBreakerOpen
	}
	// Table-6 billing: count the pair's prompt tokens once and charge
	// them for every attempt. Free tiers skip the token count entirely —
	// it is the only allocation on the all-cheap path.
	var tokens int64
	if t.rate > 0 {
		tokens = int64(cost.PairTokens(sub.Pairs[0], sub.Opts))
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		lat, err := t.backend.Predict(sub, uint64(attempt), sc.out[:], sc.conf[:])
		t.attempts.Inc()
		o.Attempts++
		r.charge(t, tokens, o)
		if err == nil {
			lat = r.maybeHedge(t, sub, uint64(attempt), lat, tokens, o)
			r.clock.Sleep(lat)
			t.breaker.Record(nil)
			return nil
		}
		// A failed attempt still wasted its provider latency.
		r.clock.Sleep(lat)
		lastErr = err
		if !backend.Retryable(err) {
			break
		}
		if attempt >= r.cfg.Retry.MaxAttempts {
			break
		}
		backoff := r.cfg.Retry.Backoff(attempt, backend.Mix(ph^t.nameHash^uint64(attempt)))
		if r.cfg.Deadline > 0 && r.clock.Now()-start+backoff > r.cfg.Deadline {
			lastErr = fmt.Errorf("%w after %d attempts: %v", backend.ErrDeadline, attempt, err)
			break
		}
		r.clock.Sleep(backoff)
		t.retries.Inc()
		o.Retries++
	}
	t.breaker.Record(lastErr)
	return lastErr
}

// maybeHedge issues the deterministic hedge attempt when the primary's
// provider latency exceeds HedgeAfter. The hedge is charged like any
// attempt; the pair's latency becomes the earlier finisher (the hedge
// starts HedgeAfter into the primary's wait). A failed hedge changes
// nothing but the bill — the primary already succeeded.
func (r *Router) maybeHedge(t *tier, sub matchers.Task, attempt uint64, lat time.Duration, tokens int64, o *Outcome) time.Duration {
	if r.cfg.HedgeAfter <= 0 || lat <= r.cfg.HedgeAfter {
		return lat
	}
	hsc := scratchPool.Get().(*routeScratch)
	hlat, herr := t.backend.Predict(sub, attempt|hedgeAttemptBit, hsc.out[:], nil)
	scratchPool.Put(hsc)
	t.attempts.Inc()
	t.hedges.Inc()
	o.Attempts++
	o.Hedges++
	r.charge(t, tokens, o)
	if herr == nil {
		if hedged := r.cfg.HedgeAfter + hlat; hedged < lat {
			return hedged
		}
	}
	return lat
}

// hedgeAttemptBit separates hedge attempt numbers from retry attempt
// numbers in the backends' deterministic outcome draws.
const hedgeAttemptBit = 1 << 32

// charge bills one attempt's tokens to the pair and the totals.
func (r *Router) charge(t *tier, tokens int64, o *Outcome) {
	if t.rate == 0 || tokens == 0 {
		return
	}
	usd := cost.Dollars(tokens, t.rate)
	o.Tokens += tokens
	o.CostUSD += usd
	r.totalTokens.Add(tokens)
	r.costNano.Add(int64(usd * 1e9))
}

// NoteShed feeds a serving-layer admission rejection (queue overflow,
// drain) into the first tier's breaker: local capacity exhaustion counts
// toward tripping the tier every request enters through, so sustained
// shedding fails new work over to the remote tiers instead of hammering
// a saturated local path. Non-retryable errors (e.g. oversized requests)
// are ignored — they say nothing about capacity.
func (r *Router) NoteShed(err error) {
	if backend.Retryable(err) {
		r.tiers[0].breaker.NoteFailure()
	}
}

// TotalCostUSD returns the accumulated Table-6 bill of every attempt
// routed so far.
func (r *Router) TotalCostUSD() float64 { return float64(r.costNano.Load()) / 1e9 }

// TotalTokens returns the accumulated billed tokens.
func (r *Router) TotalTokens() int64 { return r.totalTokens.Load() }

// TierStats is one tier's counters in a Stats snapshot.
type TierStats struct {
	Name        string
	State       State
	Attempts    int64
	Retries     int64
	Failures    int64
	Hedges      int64
	Decided     int64
	Transitions int64
}

// Stats is a point-in-time snapshot of the router's counters.
type Stats struct {
	Pairs       int64
	Escalations int64
	Failovers   int64
	Degraded    int64
	Tokens      int64
	CostUSD     float64
	Tiers       []TierStats
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	s := Stats{
		Pairs:       r.pairs.Load(),
		Escalations: r.escalations.Load(),
		Failovers:   r.failovers.Load(),
		Degraded:    r.degraded.Load(),
		Tokens:      r.TotalTokens(),
		CostUSD:     r.TotalCostUSD(),
	}
	for _, t := range r.tiers {
		s.Tiers = append(s.Tiers, TierStats{
			Name:        t.backend.Name(),
			State:       t.breaker.State(),
			Attempts:    t.attempts.Load(),
			Retries:     t.retries.Load(),
			Failures:    t.failures.Load(),
			Hedges:      t.hedges.Load(),
			Decided:     t.decided.Load(),
			Transitions: t.transitions.Load(),
		})
	}
	return s
}
