package eval

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/matchers"
)

// TestEvaluateAllParallelMatchesSequential is the engine's core guarantee:
// at any worker count, the results equal the one-worker run (cells inline,
// in table order) exactly — not approximately.
func TestEvaluateAllParallelMatchesSequential(t *testing.T) {
	h := newTestHarness()
	factory := func() matchers.Matcher { return matchers.NewStringSim() }

	h.SetParallelism(1)
	seq, err := h.EvaluateTargets(factory, h.targetNames())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		h.SetParallelism(workers)
		par, err := h.EvaluateTargets(factory, h.targetNames())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: results differ from the one-worker run", workers)
		}
	}
}

func TestEvaluateTargetsSubsetAndOrder(t *testing.T) {
	h := newTestHarness()
	h.SetParallelism(4)
	factory := func() matchers.Matcher { return matchers.NewStringSim() }
	targets := []string{"DBGO", "ABT"} // deliberately not Table 1 order
	rs, err := h.EvaluateTargets(factory, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Target != "DBGO" || rs[1].Target != "ABT" {
		t.Fatalf("results not in requested target order: %+v", rs)
	}
	h.SetParallelism(1)
	want, err := h.EvaluateTarget(factory, "ABT")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs[1], want) {
		t.Fatal("4-worker per-target result differs from the one-worker EvaluateTarget")
	}
}

func TestEvaluateTargetsUnknownTarget(t *testing.T) {
	h := newTestHarness()
	h.SetParallelism(4)
	factory := func() matchers.Matcher { return matchers.NewStringSim() }
	if _, err := h.EvaluateTargets(factory, []string{"ABT", "NOPE"}); err == nil {
		t.Fatal("unknown target should error before any cell runs")
	}
}

// TestEvaluateSpecsMatchesSequential checks the multi-spec schedule at 4
// workers against per-spec one-worker evaluation, and that progress fires
// once per spec in spec order even though cells complete out of order.
func TestEvaluateSpecsMatchesSequential(t *testing.T) {
	h := newTestHarness()
	factories := []MatcherFactory{
		func() matchers.Matcher { return matchers.NewStringSim() },
		func() matchers.Matcher { return matchers.NewZeroER() },
	}

	h.SetParallelism(1)
	var want [][]Result
	for _, f := range factories {
		rs, err := h.EvaluateTargets(f, h.targetNames())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rs)
	}

	h.SetParallelism(4)
	var mu sync.Mutex
	var fired []int
	got, err := h.EvaluateSpecs(factories, func(spec int) {
		mu.Lock()
		fired = append(fired, spec)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("EvaluateSpecs results differ from one-worker per-spec runs")
	}
	if len(fired) != len(factories) {
		t.Fatalf("progress fired %d times, want %d", len(fired), len(factories))
	}
	for i, s := range fired {
		if s != i {
			t.Fatalf("progress fired out of spec order: %v", fired)
		}
	}
}

// TestSerializationCacheUsed asserts the shared cache actually absorbs the
// repeated serialization work of re-evaluated cells: a second run of the
// same matcher reuses every serialization of the first.
func TestSerializationCacheUsed(t *testing.T) {
	h := newTestHarness()
	h.SetParallelism(2)
	factory := func() matchers.Matcher { return matchers.NewStringSim() }
	if _, err := h.EvaluateTargets(factory, []string{"ABT"}); err != nil {
		t.Fatal(err)
	}
	_, misses1 := h.SerializationCache().Stats()
	if misses1 == 0 {
		t.Fatal("cache never consulted")
	}
	if _, err := h.EvaluateTargets(factory, []string{"ABT"}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := h.SerializationCache().Stats()
	if hits2 == 0 {
		t.Fatalf("identical rerun produced no cache hits (hits=%d)", hits2)
	}
	if misses2 != misses1 {
		t.Fatalf("identical rerun missed the cache: %d new misses", misses2-misses1)
	}
}
