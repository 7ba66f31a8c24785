package serve

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/stats"
)

func routedTestPairs(t *testing.T, n int) []record.Pair {
	t.Helper()
	d := datasets.MustGenerate("BEER", eval.DatasetSeed)
	if n > len(d.Pairs) {
		n = len(d.Pairs)
	}
	pairs := make([]record.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = d.Pairs[i].Pair
	}
	return pairs
}

func newRoutedServer(t *testing.T, rcfg route.Config, rate float64, scfg Config) (*Server, *route.Router, matchers.Matcher) {
	t.Helper()
	m := matchers.NewStringSim()
	m.Train(nil, stats.NewRNG(1))
	if rcfg.Clock == nil {
		rcfg.Clock = &clock.Virtual{}
	}
	b := backend.NewSim("stringsim", m, backend.ProfileReliable.Clean(), rate, 21)
	r, err := route.New(rcfg, b)
	if err != nil {
		t.Fatal(err)
	}
	scfg.MatcherName = "stringsim"
	scfg.Router = r
	srv, err := New(m, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, r, m
}

// Routed serving with a clean free tier must answer bit-identically to
// the matcher offline, and surface the router snapshot in /stats.
func TestRoutedServingDecisions(t *testing.T) {
	srv, _, m := newRoutedServer(t, route.Config{}, 0, Config{CacheCapacity: 128})
	defer srv.Shutdown()
	pairs := routedTestPairs(t, 48)
	want := m.Predict(matchers.Task{Pairs: pairs})

	res, err := srv.Submit(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Preds[i] != want[i] {
			t.Fatalf("pair %d: routed %v, offline %v", i, res.Preds[i], want[i])
		}
	}
	if res.CostUSD != 0 {
		t.Fatalf("free tier billed $%g", res.CostUSD)
	}
	st := srv.Stats()
	if st.Routed == nil {
		t.Fatal("Stats().Routed is nil on a routed server")
	}
	if st.Routed.Pairs != int64(len(pairs)) {
		t.Fatalf("Routed.Pairs = %d, want %d", st.Routed.Pairs, len(pairs))
	}
	if st.Semantics != SemBatchInvariant.String() {
		t.Fatalf("routed semantics = %s, want batch-invariant", st.Semantics)
	}
}

// A priced routed tier bills through the router, and the bill flows into
// the per-request result and the server's TotalCostUSD exactly once.
func TestRoutedCostAccounting(t *testing.T) {
	rate := 0.015
	srv, r, _ := newRoutedServer(t, route.Config{}, rate, Config{})
	defer srv.Shutdown()
	pairs := routedTestPairs(t, 8)
	res, err := srv.Submit(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CostUSD <= 0 || res.Tokens <= 0 {
		t.Fatalf("routed request billed $%g / %d tokens, want > 0", res.CostUSD, res.Tokens)
	}
	want := r.TotalCostUSD()
	if diff := res.CostUSD - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("request bill $%g != router total $%g", res.CostUSD, want)
	}
	st := srv.Stats()
	if diff := st.TotalCostUSD - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("stats TotalCostUSD = %g, want %g (routed bill, counted once)", st.TotalCostUSD, want)
	}
	if st.ScoredTokens != 0 {
		t.Fatalf("server-side pricing ran on a routed server: %d tokens", st.ScoredTokens)
	}
}

// The serve shed signals are typed: they wrap the backend errors, so the
// router's retryable classification and the HTTP status mapping agree.
func TestShedErrorsTyped(t *testing.T) {
	if !errors.Is(ErrQueueFull, backend.ErrOverloaded) {
		t.Error("ErrQueueFull does not wrap backend.ErrOverloaded")
	}
	if !errors.Is(ErrDraining, backend.ErrUnavailable) {
		t.Error("ErrDraining does not wrap backend.ErrUnavailable")
	}
	if !backend.Retryable(ErrQueueFull) || !backend.Retryable(ErrDraining) {
		t.Error("shed signals must classify as retryable")
	}
	if backend.Retryable(ErrTooLarge) {
		t.Error("an oversized request is the client's fault, not retryable")
	}
	for err, want := range map[error]int{
		ErrQueueFull:           http.StatusTooManyRequests,
		ErrDraining:            http.StatusServiceUnavailable,
		ErrTooLarge:            http.StatusRequestEntityTooLarge,
		backend.ErrOverloaded:  http.StatusTooManyRequests,
		backend.ErrUnavailable: http.StatusServiceUnavailable,
		backend.ErrDeadline:    http.StatusServiceUnavailable,
	} {
		if got := StatusFor(err); got != want {
			t.Errorf("StatusFor(%v) = %d, want %d", err, got, want)
		}
	}
}

// Admission sheds feed the router's entry-tier breaker: sustained
// shedding trips it.
func TestRoutedShedFeedsBreaker(t *testing.T) {
	srv, r, _ := newRoutedServer(t,
		route.Config{Breaker: route.BreakerConfig{FailureThreshold: 2, Cooldown: 1 << 40}},
		0, Config{})
	srv.Shutdown() // every Submit from here on sheds with ErrDraining
	pairs := routedTestPairs(t, 1)
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(context.Background(), pairs); !errors.Is(err, ErrDraining) {
			t.Fatalf("submit %d: err = %v, want ErrDraining", i, err)
		}
	}
	if st := r.Stats(); st.Tiers[0].State != route.Open {
		t.Fatalf("entry-tier breaker state = %v after sustained shedding, want open", st.Tiers[0].State)
	}
}

// TestPairsScoredCountedBeforeReply pins the order of accounting and
// reply on both batch-invariant scoring paths: by the time Submit returns,
// /stats already counts the pairs it answered, so a caller reading the
// counters after its own answer never sees them one batch behind.
func TestPairsScoredCountedBeforeReply(t *testing.T) {
	direct, err := New(trained(t, "stringsim"), Config{MatcherName: "stringsim"})
	if err != nil {
		t.Fatal(err)
	}
	routed, _, _ := newRoutedServer(t, route.Config{}, 0, Config{})
	pairs := routedTestPairs(t, 4)
	for name, srv := range map[string]*Server{"coalesced": direct, "routed": routed} {
		answered := int64(0)
		for i := 0; i < 1000; i++ {
			// No cache is configured, so every pair is scored.
			if _, err := srv.Submit(context.Background(), pairs); err != nil {
				t.Fatal(err)
			}
			answered += int64(len(pairs))
			if got := srv.Stats().PairsScored; got < answered {
				t.Fatalf("%s: pairs_scored = %d after %d pairs were answered", name, got, answered)
			}
		}
		srv.Shutdown()
	}
}
