package route

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/cost"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/stats"
)

// stubBackend is a scriptable backend for routing tests.
type stubBackend struct {
	name     string
	rate     float64
	match    bool
	conf     float64
	lat      time.Duration
	hedgeLat time.Duration // latency of hedge attempts (defaults to lat)
	failNext int           // attempts 1..failNext fail with failErr
	failErr  error
	always   error // when set, every attempt fails with it
	calls    int
}

func (s *stubBackend) Name() string       { return s.name }
func (s *stubBackend) RatePer1K() float64 { return s.rate }

func (s *stubBackend) Predict(task matchers.Task, attempt uint64, out []bool, conf []float64) (time.Duration, error) {
	s.calls++
	lat := s.lat
	if attempt&hedgeAttemptBit != 0 && s.hedgeLat > 0 {
		lat = s.hedgeLat
	}
	if s.always != nil {
		return lat, s.always
	}
	if attempt&hedgeAttemptBit == 0 && int(attempt) <= s.failNext {
		return lat, s.failErr
	}
	for i := range out {
		out[i] = s.match
	}
	for i := range conf {
		conf[i] = s.conf
	}
	return lat, nil
}

func beerTask(tb testing.TB, n int) matchers.Task {
	tb.Helper()
	d := datasets.MustGenerate("BEER", eval.DatasetSeed)
	if n > len(d.Pairs) {
		n = len(d.Pairs)
	}
	pairs := make([]record.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = d.Pairs[i].Pair
	}
	return matchers.Task{Pairs: pairs}
}

func newTestRouter(t *testing.T, cfg Config, backends ...backend.Backend) *Router {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = &clock.Virtual{}
	}
	r, err := New(cfg, backends...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// With a clean free tier and threshold 0 the router must be bit-identical
// to the underlying matcher called offline — the acceptance criterion of
// the cascade: no escalation, no failure, no difference.
func TestRouterOfflineIdentity(t *testing.T) {
	m := matchers.NewStringSim()
	m.Train(nil, stats.NewRNG(1))
	task := beerTask(t, 80)
	want := m.Predict(task)

	b := backend.NewSim("stringsim", m, backend.ProfileReliable.Clean(), 0, 11)
	r := newTestRouter(t, Config{Confidence: 0}, b)
	outcomes := r.RoutePairs(task, nil)
	if len(outcomes) != len(want) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(want))
	}
	for i, o := range outcomes {
		if o.Match != want[i] {
			t.Fatalf("pair %d: routed %v, offline %v", i, o.Match, want[i])
		}
		if o.Tier != 0 || o.Degraded || o.Escalations != 0 || o.Attempts != 1 {
			t.Fatalf("pair %d: unexpected outcome %+v", i, o)
		}
		if o.CostUSD != 0 || o.Tokens != 0 {
			t.Fatalf("pair %d: free tier billed %d tokens $%g", i, o.Tokens, o.CostUSD)
		}
	}
	s := r.Stats()
	if s.Pairs != int64(len(want)) || s.Escalations != 0 || s.Degraded != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// Low-confidence cheap decisions escalate; confident ones stop at the
// cheap tier; tiers with no confidence signal never escalate.
func TestRouterConfidenceEscalation(t *testing.T) {
	task := beerTask(t, 1)

	cheap := &stubBackend{name: "cheap", match: false, conf: 0.2}
	exp := &stubBackend{name: "expensive", match: true, conf: 0.9}
	r := newTestRouter(t, Config{Confidence: 0.5}, cheap, exp)
	o := r.RoutePairs(task, nil)[0]
	if !o.Match || o.Tier != 1 || o.Escalations != 1 {
		t.Fatalf("low-confidence pair did not escalate: %+v", o)
	}

	cheap2 := &stubBackend{name: "cheap", match: false, conf: 0.8}
	exp2 := &stubBackend{name: "expensive", match: true, conf: 0.9}
	r = newTestRouter(t, Config{Confidence: 0.5}, cheap2, exp2)
	o = r.RoutePairs(task, nil)[0]
	if o.Match || o.Tier != 0 || o.Escalations != 0 || exp2.calls != 0 {
		t.Fatalf("confident pair escalated anyway: %+v (expensive calls %d)", o, exp2.calls)
	}

	// conf -1 = no signal: treated as fully confident.
	blind := &stubBackend{name: "blind", match: true, conf: -1}
	exp3 := &stubBackend{name: "expensive", match: false, conf: 0.9}
	r = newTestRouter(t, Config{Confidence: 0.99}, blind, exp3)
	o = r.RoutePairs(task, nil)[0]
	if !o.Match || o.Tier != 0 || exp3.calls != 0 {
		t.Fatalf("confidence-blind tier escalated: %+v", o)
	}
}

// Every attempt is charged — retries of failed calls included. Two
// rate-limited attempts plus the success must bill 3× the pair's tokens.
func TestRouterRetryChargesEveryAttempt(t *testing.T) {
	task := beerTask(t, 1)
	pairTok := int64(cost.PairTokens(task.Pairs[0], task.Opts))
	rate := 0.015
	b := &stubBackend{name: "flaky", rate: rate, match: true, conf: 1,
		failNext: 2, failErr: backend.ErrOverloaded}
	r := newTestRouter(t, Config{Confidence: 0.5, Retry: RetryConfig{MaxAttempts: 3}}, b)
	o := r.RoutePairs(task, nil)[0]
	if o.Attempts != 3 || o.Retries != 2 || !o.Match || o.Degraded {
		t.Fatalf("outcome %+v, want 3 attempts / 2 retries / match", o)
	}
	if o.Tokens != 3*pairTok {
		t.Fatalf("billed %d tokens, want %d (3 × %d)", o.Tokens, 3*pairTok, pairTok)
	}
	wantUSD := cost.Dollars(3*pairTok, rate)
	if diff := o.CostUSD - wantUSD; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("billed $%g, want $%g", o.CostUSD, wantUSD)
	}
	if o.Latency <= 0 {
		t.Fatal("virtual latency not accumulated")
	}
	if got := r.TotalCostUSD(); got < wantUSD*0.999 || got > wantUSD*1.001 {
		t.Fatalf("TotalCostUSD() = %g, want ≈%g", got, wantUSD)
	}
}

// Terminal errors fail over immediately — no retry burn — and the next
// tier answers.
func TestRouterFailoverOnTerminalError(t *testing.T) {
	task := beerTask(t, 1)
	dead := &stubBackend{name: "dead", always: errors.New("wedged")}
	good := &stubBackend{name: "good", match: true, conf: 1}
	r := newTestRouter(t, Config{Confidence: 0.5}, dead, good)
	o := r.RoutePairs(task, nil)[0]
	if !o.Match || o.Tier != 1 || o.Failovers != 1 || o.Degraded {
		t.Fatalf("outcome %+v, want failover to tier 1", o)
	}
	if dead.calls != 1 {
		t.Fatalf("terminal error was retried %d times", dead.calls-1)
	}
}

// When every tier fails, the router degrades to the parameter-free
// fallback instead of erroring.
func TestRouterDegradedFallback(t *testing.T) {
	task := beerTask(t, 4)
	b1 := &stubBackend{name: "down1", always: backend.ErrUnavailable}
	b2 := &stubBackend{name: "down2", always: backend.ErrUnavailable}
	r := newTestRouter(t, Config{Confidence: 0.5, Retry: RetryConfig{MaxAttempts: 2}}, b1, b2)
	outcomes := r.RoutePairs(task, nil)
	for i, o := range outcomes {
		if !o.Degraded || o.Tier != -1 {
			t.Fatalf("pair %d: %+v, want degraded", i, o)
		}
		want := matchers.CheapScore(task.Pairs[i], task.Opts) >= 0.5
		if o.Match != want {
			t.Fatalf("pair %d: degraded decision %v, CheapScore fallback %v", i, o.Match, want)
		}
		if o.Retries != 2 { // one retry per tier
			t.Fatalf("pair %d: %d retries, want 2", i, o.Retries)
		}
	}
	if s := r.Stats(); s.Degraded != int64(len(outcomes)) {
		t.Fatalf("stats.Degraded = %d, want %d", s.Degraded, len(outcomes))
	}
}

// A persistently failing tier trips its breaker; once open the tier is
// skipped without touching the backend until the cooldown.
func TestRouterBreakerOpensAndShortCircuits(t *testing.T) {
	task := beerTask(t, 10)
	down := &stubBackend{name: "down", always: backend.ErrUnavailable}
	good := &stubBackend{name: "good", match: true, conf: 1}
	r := newTestRouter(t, Config{
		Confidence: 0.5,
		Retry:      RetryConfig{MaxAttempts: 1},
		Breaker:    BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
	}, down, good)
	outcomes := r.RoutePairs(task, nil)
	for i, o := range outcomes {
		if !o.Match || o.Tier != 1 {
			t.Fatalf("pair %d: %+v, want tier-1 decision", i, o)
		}
	}
	// 3 calls tripped the breaker; the remaining 7 pairs must not have
	// touched the backend at all.
	if down.calls != 3 {
		t.Fatalf("down backend saw %d calls, want 3 before the breaker opened", down.calls)
	}
	s := r.Stats()
	if s.Tiers[0].State != Open || s.Tiers[0].Transitions != 1 {
		t.Fatalf("tier-0 breaker %+v, want open after 1 transition", s.Tiers[0])
	}
}

// A retry whose backoff would overrun the deadline fails the tier with
// ErrDeadline instead of sleeping.
func TestRouterDeadline(t *testing.T) {
	task := beerTask(t, 1)
	down := &stubBackend{name: "down", always: backend.ErrUnavailable}
	good := &stubBackend{name: "good", match: true, conf: 1}
	r := newTestRouter(t, Config{
		Confidence: 0.5,
		Retry:      RetryConfig{MaxAttempts: 5, BaseBackoff: 100 * time.Millisecond},
		Deadline:   50 * time.Millisecond,
	}, down, good)
	o := r.RoutePairs(task, nil)[0]
	if !o.Match || o.Tier != 1 {
		t.Fatalf("outcome %+v, want failover decision", o)
	}
	if o.Retries != 0 {
		t.Fatalf("%d retries despite a deadline shorter than any backoff", o.Retries)
	}
	if down.calls != 1 {
		t.Fatalf("down backend saw %d calls, want 1", down.calls)
	}
}

// A slow primary triggers one charged hedge; the pair's latency becomes
// the earlier finisher.
func TestRouterHedging(t *testing.T) {
	task := beerTask(t, 1)
	pairTok := int64(cost.PairTokens(task.Pairs[0], task.Opts))
	slow := &stubBackend{name: "slow", rate: 0.001, match: true, conf: 1,
		lat: 100 * time.Millisecond, hedgeLat: time.Millisecond}
	r := newTestRouter(t, Config{Confidence: 0.5, HedgeAfter: 10 * time.Millisecond}, slow)
	o := r.RoutePairs(task, nil)[0]
	if o.Hedges != 1 || o.Attempts != 2 {
		t.Fatalf("outcome %+v, want 1 hedge / 2 attempts", o)
	}
	if want := 11 * time.Millisecond; o.Latency != want {
		t.Fatalf("latency %v, want %v (hedge window + fast hedge)", o.Latency, want)
	}
	if o.Tokens != 2*pairTok {
		t.Fatalf("billed %d tokens, want %d (hedge charged too)", o.Tokens, 2*pairTok)
	}

	// Fast primaries never hedge.
	fast := &stubBackend{name: "fast", match: true, conf: 1, lat: time.Millisecond}
	r = newTestRouter(t, Config{Confidence: 0.5, HedgeAfter: 10 * time.Millisecond}, fast)
	o = r.RoutePairs(task, nil)[0]
	if o.Hedges != 0 || o.Attempts != 1 {
		t.Fatalf("fast path hedged: %+v", o)
	}
}

// NoteShed feeds admission rejections into the entry tier's breaker.
func TestRouterNoteShed(t *testing.T) {
	b := &stubBackend{name: "local", match: true, conf: 1}
	r := newTestRouter(t, Config{Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}}, b)
	r.NoteShed(errors.New("request too large")) // not retryable: ignored
	if s := r.Stats(); s.Tiers[0].State != Closed {
		t.Fatal("non-retryable shed signal moved the breaker")
	}
	r.NoteShed(backend.ErrOverloaded)
	r.NoteShed(backend.ErrOverloaded)
	if s := r.Stats(); s.Tiers[0].State != Open {
		t.Fatal("retryable shed signals did not trip the entry tier's breaker")
	}
}

// Two routers built identically over injected-failure Sims must replay
// the same outcome sequence — the determinism the emroute sweep banks on.
func TestRouterDeterministicReplay(t *testing.T) {
	m := matchers.NewStringSim()
	m.Train(nil, stats.NewRNG(1))
	task := beerTask(t, 60)

	run := func() []Outcome {
		inj := backend.ProfileSLM
		inj.FailRate, inj.RateLimitRate = 0.2, 0.2
		b := backend.NewSim("stringsim", m, inj, 0.001, 17)
		r := newTestRouter(t, Config{
			Confidence: 0.3,
			Retry:      RetryConfig{MaxAttempts: 3},
			Deadline:   5 * time.Second,
		}, b)
		return r.RoutePairs(task, nil)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configurations produced different outcome sequences")
	}
	// The injection must actually have exercised the retry machinery.
	var retries int
	for _, o := range a {
		retries += o.Retries
	}
	if retries == 0 {
		t.Fatal("injection produced zero retries; the replay test is vacuous")
	}
}

// AsMatcher adapts the cascade to the Matcher interface: decisions equal
// RoutePairs and the batch path reuses the caller's buffer.
func TestRouterAsMatcher(t *testing.T) {
	m := matchers.NewStringSim()
	m.Train(nil, stats.NewRNG(1))
	task := beerTask(t, 40)
	b := backend.NewSim("stringsim", m, backend.ProfileReliable.Clean(), 0, 3)
	r := newTestRouter(t, Config{}, b)
	rm := r.AsMatcher("route[stringsim]")
	got := rm.Predict(task)
	want := m.Predict(task)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: adapter %v, offline %v", i, got[i], want[i])
		}
	}
	if rm.Name() != "route[stringsim]" {
		t.Fatalf("Name() = %q", rm.Name())
	}
}

// allCheapRouter is the fixture of BenchmarkRouteAllCheap and of the alloc
// gate that mirrors it (alloc_test.go): one free clean tier that decides
// every pair, caches and pools warmed by one pass.
func allCheapRouter(tb testing.TB) (*Router, matchers.Task, []Outcome) {
	tb.Helper()
	m := matchers.NewStringSim()
	m.Train(nil, stats.NewRNG(1))
	task := beerTask(tb, 64)
	task.Opts.Cache = record.NewSerializeCache()
	sim := backend.NewSim("stringsim", m, backend.Profile{Name: "zero"}, 0, 1)
	r, err := New(Config{Clock: &clock.Virtual{}}, sim)
	if err != nil {
		tb.Fatal(err)
	}
	dst := make([]Outcome, 0, len(task.Pairs))
	return r, task, r.RoutePairs(task, dst) // warm caches and pools
}

// BenchmarkRouteAllCheap measures router overhead on the all-cheap path
// (free tier, clean profile, no escalation). TestRouteAllCheapZeroAlloc
// gates the same path at zero allocations: the router must add
// bookkeeping, not garbage, on the hot path.
func BenchmarkRouteAllCheap(b *testing.B) {
	r, task, dst := allCheapRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.RoutePairs(task, dst)
	}
	if len(dst) != len(task.Pairs) {
		b.Fatal("short outcome slice")
	}
}
