package eval

import (
	"reflect"
	"testing"

	"repro/internal/matchers"
	"repro/internal/obs"
)

// The acceptance bar of the observability layer: tracing must be a pure
// observer. A traced LODO run produces bit-identical scores to an
// untraced one, and the spans it emits nest correctly and carry the
// attributes the run-report fold consumes.

func TestTracedEvaluationBitIdentical(t *testing.T) {
	factory := func() matchers.Matcher { return matchers.NewStringSim() }
	target := "ABT"

	plain := testHarness(Config{Seeds: []uint64{1, 2}, MaxTest: 120})
	base, err := plain.EvaluateTarget(factory, target)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	traced := testHarness(Config{Seeds: []uint64{1, 2}, MaxTest: 120, Tracer: tr})
	got, err := traced.EvaluateTarget(factory, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("traced run diverged:\nuntraced %+v\ntraced   %+v", base, got)
	}

	recs := tr.Records()
	if len(recs) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if err := obs.CheckNesting(recs); err != nil {
		t.Fatal(err)
	}
	// 2 seeds × (cell + train + predict + score + serialize + classify).
	byName := map[string]int{}
	for _, r := range recs {
		byName[r.Name]++
	}
	for _, name := range []string{"cell", "train", "predict", "score", "serialize", "classify"} {
		if byName[name] != 2 {
			t.Fatalf("span %q appears %d times, want 2 (records: %v)", name, byName[name], byName)
		}
	}
	for _, r := range recs {
		if r.Name == "cell" {
			if r.Str("matcher") != "StringSim" || r.Str("target") != target {
				t.Fatalf("cell span attrs = %+v", r.Attrs)
			}
		}
		if r.Name == "predict" && r.Int("pairs") != 120 {
			t.Fatalf("predict span pairs = %d, want 120", r.Int("pairs"))
		}
	}
}

func TestTracedParallelMatchesSequential(t *testing.T) {
	factory := func() matchers.Matcher { return matchers.NewStringSim() }
	tr := obs.NewTracer()
	h := testHarness(Config{Seeds: []uint64{1, 2, 3}, MaxTest: 100, Parallelism: 4, Tracer: tr})
	par, err := h.EvaluateTargets(factory, []string{"ABT", "AMGO"})
	if err != nil {
		t.Fatal(err)
	}
	h.SetParallelism(1)
	h.SetTracer(nil)
	seq, err := h.EvaluateTargets(factory, []string{"ABT", "AMGO"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("traced parallel run diverged from untraced sequential run:\n%+v\n%+v", par, seq)
	}
	if err := obs.CheckNesting(tr.Records()); err != nil {
		t.Fatal(err)
	}
	// 2 targets × 3 seeds of traced cells; the untraced second run must
	// not have added any.
	var cells int
	for _, r := range tr.Records() {
		if r.Name == "cell" {
			cells++
		}
	}
	if cells != 6 {
		t.Fatalf("recorded %d cell spans, want 6", cells)
	}
}

func TestEnablePoolMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnablePoolMetrics(reg)
	defer EnablePoolMetrics(nil)
	h := testHarness(Config{Seeds: []uint64{1}, MaxTest: 50, Parallelism: 2})
	if _, err := h.EvaluateTargets(func() matchers.Matcher { return matchers.NewStringSim() }, []string{"ABT"}); err != nil {
		t.Fatal(err)
	}
	var snap []obs.MetricSnapshot
	for _, s := range reg.Snapshot() {
		if s.Name == "par_job_run_us" {
			snap = append(snap, s)
		}
	}
	if len(snap) != 1 || snap[0].Count == nil || *snap[0].Count == 0 {
		t.Fatalf("pool metrics not recorded: %+v", reg.Snapshot())
	}
}
