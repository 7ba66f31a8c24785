package eval

import (
	"math"
	"sync"
	"testing"

	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/stats"
)

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 5 TN, 1 FN.
	outcomes := []struct{ pred, actual bool }{
		{true, true}, {true, true}, {true, true}, {true, false},
		{false, false}, {false, false}, {false, false}, {false, false}, {false, false},
		{false, true},
	}
	for _, o := range outcomes {
		c.Observe(o.pred, o.actual)
	}
	if c.TP != 3 || c.FP != 1 || c.TN != 5 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if got := c.Precision(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("recall = %v", got)
	}
	if got := c.F1(); math.Abs(got-75) > 1e-9 {
		t.Errorf("F1 = %v (percent scale)", got)
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion should score 0 everywhere")
	}
	c.Observe(false, true)
	if c.F1() != 0 {
		t.Fatal("no-prediction F1 should be 0")
	}
}

func TestScoreLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Score([]bool{true}, []bool{true, false})
}

func newTestHarness() *Harness {
	return NewHarness(Config{Seeds: []uint64{1, 2}, MaxTest: 200})
}

func TestHarnessDatasets(t *testing.T) {
	h := newTestHarness()
	if len(h.Datasets()) != 11 {
		t.Fatalf("harness has %d datasets", len(h.Datasets()))
	}
	if h.Dataset("ABT") == nil || h.Dataset("NOPE") != nil {
		t.Fatal("Dataset lookup wrong")
	}
}

func TestHarnessTestIndicesFixedAndCapped(t *testing.T) {
	h1 := newTestHarness()
	h2 := newTestHarness()
	for _, d := range h1.Datasets() {
		i1, i2 := h1.TestIndices(d.Name), h2.TestIndices(d.Name)
		if len(i1) != len(i2) {
			t.Fatalf("%s: test set size differs across harnesses", d.Name)
		}
		for k := range i1 {
			if i1[k] != i2[k] {
				t.Fatalf("%s: test indices differ across harnesses (must be identical for all baselines)", d.Name)
			}
		}
		if len(i1) > 200 {
			t.Fatalf("%s: test set %d exceeds cap", d.Name, len(i1))
		}
		if len(d.Pairs) <= 200 && len(i1) != len(d.Pairs) {
			t.Fatalf("%s: small dataset should use all pairs", d.Name)
		}
	}
}

func TestHarnessTransferExcludesTarget(t *testing.T) {
	h := newTestHarness()
	tr := h.Transfer("DBAC")
	if len(tr) != 10 {
		t.Fatalf("transfer has %d datasets, want 10", len(tr))
	}
	for _, d := range tr {
		if d.Name == "DBAC" {
			t.Fatal("transfer includes the target (leave-one-dataset-out violated)")
		}
	}
}

// recordingMatcher captures what the harness feeds it, for protocol tests.
type recordingMatcher struct {
	transferNames []string
	sawSchema     bool
	predictCalls  int
}

func (m *recordingMatcher) Name() string            { return "recorder" }
func (m *recordingMatcher) ParamsMillions() float64 { return 0 }
func (m *recordingMatcher) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.transferNames = nil
	for _, d := range transfer {
		m.transferNames = append(m.transferNames, d.Name)
	}
}
func (m *recordingMatcher) Predict(task matchers.Task) []bool {
	m.predictCalls++
	m.sawSchema = task.Schema.NumAttrs() > 0
	out := make([]bool, len(task.Pairs))
	return out
}

func TestEvaluateTargetProtocol(t *testing.T) {
	h := newTestHarness()
	// The engine calls the factory from its workers, once per seed.
	var mu sync.Mutex
	var made []*recordingMatcher
	factory := func() matchers.Matcher {
		m := &recordingMatcher{}
		mu.Lock()
		made = append(made, m)
		mu.Unlock()
		return m
	}
	res, err := h.EvaluateTarget(factory, "FOZA")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.F1s) != 2 || len(made) != 2 {
		t.Fatalf("expected one F1 and one fresh matcher per seed, got %d and %d", len(res.F1s), len(made))
	}
	for _, m := range made {
		for _, name := range m.transferNames {
			if name == "FOZA" {
				t.Fatal("matcher saw target in transfer data")
			}
		}
		if len(m.transferNames) != 10 || m.predictCalls != 1 || !m.sawSchema {
			t.Fatalf("matcher saw %d transfer datasets, %d predict calls, schema %v",
				len(m.transferNames), m.predictCalls, m.sawSchema)
		}
	}
	if res.Target != "FOZA" || res.Matcher != "recorder" {
		t.Fatalf("result metadata wrong: %+v", res)
	}
}

func TestEvaluateTargetUnknown(t *testing.T) {
	h := newTestHarness()
	if _, err := h.EvaluateTarget(func() matchers.Matcher { return &recordingMatcher{} }, "NOPE"); err == nil {
		t.Fatal("expected error for unknown target")
	}
}

func TestResultMeanStd(t *testing.T) {
	r := Result{F1s: []float64{80, 90}}
	if r.Mean() != 85 {
		t.Fatalf("Mean = %v", r.Mean())
	}
	if math.Abs(r.Std()-math.Sqrt(50)) > 1e-9 {
		t.Fatalf("Std = %v", r.Std())
	}
}

func TestMacroMean(t *testing.T) {
	results := []Result{
		{F1s: []float64{80, 90}},
		{F1s: []float64{60, 70}},
	}
	mean, std := MacroMean(results)
	// Per-seed macro means: (80+60)/2=70 and (90+70)/2=80 -> mean 75.
	if math.Abs(mean-75) > 1e-12 {
		t.Fatalf("macro mean = %v", mean)
	}
	if math.Abs(std-math.Sqrt(50)) > 1e-9 {
		t.Fatalf("macro std = %v", std)
	}
	if m, s := MacroMean(nil); m != 0 || s != 0 {
		t.Fatal("empty MacroMean should be zero")
	}
}

func TestEvaluateDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		h := NewHarness(Config{Seeds: []uint64{3}, MaxTest: 150})
		res, err := h.EvaluateTarget(func() matchers.Matcher { return matchers.NewStringSim() }, "BEER")
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean()
	}
	if run() != run() {
		t.Fatal("evaluation not reproducible for a fixed seed")
	}
}
