package matchers

import (
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/lm"
	"repro/internal/record"
	"repro/internal/stats"
)

// benchmarkPool returns the 11 benchmark datasets (seed 42), generated
// once per test binary instead of once per test. Tests read the datasets
// and never modify them; one that narrows a dataset copies it first
// (smallTransfer).
var benchmarkPool = sync.OnceValue(func() []*record.Dataset { return datasets.GenerateAll(42) })

// benchmarkDataset returns the named dataset of benchmarkPool.
func benchmarkDataset(name string) *record.Dataset {
	for _, d := range benchmarkPool() {
		if d.Name == name {
			return d
		}
	}
	panic("matchers test: unknown dataset " + name)
}

// miniTask builds a small task from a benchmark dataset: the first n test
// pairs with labels.
func miniTask(t *testing.T, name string, n int) (Task, []bool) {
	t.Helper()
	d := benchmarkDataset(name)
	if n > len(d.Pairs) {
		n = len(d.Pairs)
	}
	// Interleave positives and negatives for a balanced mini-batch.
	var pairs []record.Pair
	var labels []bool
	pos, neg := 0, 0
	for _, p := range d.Pairs {
		if p.Match && pos < n/2 {
			pairs = append(pairs, p.Pair)
			labels = append(labels, true)
			pos++
		} else if !p.Match && neg < n-n/2 {
			pairs = append(pairs, p.Pair)
			labels = append(labels, false)
			neg++
		}
		if len(pairs) >= n {
			break
		}
	}
	return Task{Pairs: pairs, Schema: d.Schema, TargetName: name}, labels
}

func accuracy(preds []bool, labels []bool) float64 {
	correct := 0
	for i := range preds {
		if preds[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds))
}

func transferFor(name string) []*record.Dataset {
	var out []*record.Dataset
	for _, d := range benchmarkPool() {
		if d.Name != name {
			out = append(out, d)
		}
	}
	return out
}

func TestStringSimBehaviour(t *testing.T) {
	m := NewStringSim()
	if m.Name() != "StringSim" || m.ParamsMillions() != 0 {
		t.Fatal("metadata wrong")
	}
	same := record.Record{Values: []string{"golden dragon", "main street"}}
	near := record.Record{Values: []string{"golden dragon", "main st"}}
	far := record.Record{Values: []string{"blue bistro", "oak avenue"}}
	task := Task{Pairs: []record.Pair{
		{Left: same, Right: near},
		{Left: same, Right: far},
	}}
	preds := m.Predict(task)
	if !preds[0] || preds[1] {
		t.Fatalf("StringSim predictions wrong: %v", preds)
	}
}

func TestZeroERBatchSeparation(t *testing.T) {
	task, labels := miniTask(t, "FOZA", 200)
	m := NewZeroER()
	m.Train(nil, stats.NewRNG(1))
	preds := m.Predict(task)
	if acc := accuracy(preds, labels); acc < 0.8 {
		t.Fatalf("ZeroER accuracy %.3f on structured FOZA mini-batch", acc)
	}
}

func TestZeroERWithoutTrainCall(t *testing.T) {
	// ZeroER must work even if Train is skipped (parameter-free).
	task, _ := miniTask(t, "ZOYE", 50)
	m := NewZeroER()
	preds := m.Predict(task)
	if len(preds) != len(task.Pairs) {
		t.Fatal("prediction count mismatch")
	}
}

func TestZeroEREmptyBatch(t *testing.T) {
	m := NewZeroER()
	if preds := m.Predict(Task{}); preds != nil {
		t.Fatal("empty batch should produce nil predictions")
	}
}

func TestMatchGPTLabels(t *testing.T) {
	m := NewMatchGPT(lm.GPT4)
	if m.Name() != "MatchGPT [GPT-4]" {
		t.Fatalf("Name = %q", m.Name())
	}
	if m.ParamsMillions() != lm.GPT4.ParamsMillions {
		t.Fatal("params mismatch")
	}
}

func TestMatchGPTPredicts(t *testing.T) {
	task, labels := miniTask(t, "FOZA", 200)
	m := NewMatchGPT(lm.GPT4)
	m.Train(transferFor("FOZA"), stats.NewRNG(1))
	preds := m.Predict(task)
	if acc := accuracy(preds, labels); acc < 0.85 {
		t.Fatalf("MatchGPT [GPT-4] accuracy %.3f on FOZA mini-batch", acc)
	}
}

func TestMatchGPTDemoSelection(t *testing.T) {
	transfer := transferFor("ABT")
	rng := stats.NewRNG(5)
	for _, strategy := range []lm.DemoStrategy{lm.DemoHandPicked, lm.DemoRandom} {
		demos := selectDemos(transfer, strategy, 3, rng.Split(strategy.String()))
		if len(demos) != 3 {
			t.Fatalf("%v: %d demos, want 3", strategy, len(demos))
		}
		pos := 0
		for _, d := range demos {
			if d.Pair.Match {
				pos++
			}
			if d.Dataset == "ABT" {
				t.Fatalf("%v: demo drawn from the target dataset", strategy)
			}
		}
		if pos != 1 {
			t.Fatalf("%v: %d positives among demos, want 1 (paper: 1 pos + 2 neg)", strategy, pos)
		}
	}
	if demos := selectDemos(transfer, lm.DemoNone, 3, rng); demos != nil {
		t.Fatal("DemoNone should select nothing")
	}
}

func TestJellyfishSeenDatasets(t *testing.T) {
	seen := []string{"DBAC", "DBGO", "FOZA", "AMGO", "BEER", "ITAM"}
	for _, s := range seen {
		if !JellyfishSeenDatasets[s] {
			t.Errorf("%s should be marked seen", s)
		}
	}
	for _, s := range []string{"ABT", "WDC", "ZOYE", "ROIM", "WAAM"} {
		if JellyfishSeenDatasets[s] {
			t.Errorf("%s should not be marked seen", s)
		}
	}
	if len(seen) != 6 {
		t.Fatal("the paper brackets exactly six datasets")
	}
}

func TestJellyfishSeenBoost(t *testing.T) {
	// On a seen dataset Jellyfish runs with tuned capabilities and must
	// beat its own unseen-mode accuracy on the same data.
	task, labels := miniTask(t, "AMGO", 300)
	run := func(target string) float64 {
		taskCopy := task
		taskCopy.TargetName = target
		m := NewJellyfish()
		m.Train(nil, stats.NewRNG(3))
		return accuracy(m.Predict(taskCopy), labels)
	}
	seenAcc := run("AMGO") // AMGO is in the seen set
	unseenAcc := run("XXX")
	if seenAcc < unseenAcc-0.02 {
		t.Fatalf("seen-dataset accuracy %.3f below unseen-mode %.3f", seenAcc, unseenAcc)
	}
}

func TestDittoTrainPredict(t *testing.T) {
	task, labels := miniTask(t, "FOZA", 120)
	m := NewDitto()
	m.TrainCap = 800 // keep the unit test fast
	m.Train(transferFor("FOZA"), stats.NewRNG(1))
	preds := m.Predict(task)
	if acc := accuracy(preds, labels); acc < 0.7 {
		t.Fatalf("Ditto accuracy %.3f after training", acc)
	}
}

func TestDittoSummarize(t *testing.T) {
	m := NewDitto()
	m.SummarizeAt = 3
	long := record.Pair{
		Left:  record.Record{Values: []string{"one two three four five"}},
		Right: record.Record{Values: []string{"a b"}},
	}
	out := m.summarize(long)
	if got := out.Left.Values[0]; got != "one two three" {
		t.Fatalf("summarize = %q", got)
	}
	if out.Right.Values[0] != "a b" {
		t.Fatal("short value must be untouched")
	}
}

func TestDittoAugmentPreservesArity(t *testing.T) {
	m := NewDitto()
	rng := stats.NewRNG(7)
	p := record.Pair{
		Left:  record.Record{Values: []string{"alpha beta gamma", "x", "y"}},
		Right: record.Record{Values: []string{"alpha beta", "x", "z"}},
	}
	for i := 0; i < 50; i++ {
		aug := m.augmentPair(p, rng)
		if len(aug.Left.Values) != 3 || len(aug.Right.Values) != 3 {
			t.Fatal("augmentation changed arity")
		}
	}
}

func TestAnyMatchVariants(t *testing.T) {
	variants := []struct {
		m       *AnyMatch
		name    string
		boosted bool
	}{
		{NewAnyMatchGPT2(), "AnyMatch [GPT-2]", true},
		{NewAnyMatchT5(), "AnyMatch [T5]", true},
		{NewAnyMatchLLaMA(), "AnyMatch [LLaMA3.2]", false},
	}
	for _, v := range variants {
		if v.m.Name() != v.name {
			t.Errorf("Name = %q, want %q", v.m.Name(), v.name)
		}
		if v.m.UseBoostSelection != v.boosted {
			t.Errorf("%s: boosting = %v, want %v (paper configuration)", v.name, v.m.UseBoostSelection, v.boosted)
		}
	}
	// The LLaMA variant keeps balancing but drops augmentation.
	if NewAnyMatchLLaMA().UseAttrAugment {
		t.Error("LLaMA variant must not use attribute augmentation")
	}
}

func TestAnyMatchTrainPredict(t *testing.T) {
	task, labels := miniTask(t, "ZOYE", 100)
	m := NewAnyMatchGPT2()
	m.PerClass = 400 // keep the unit test fast
	m.Train(transferFor("ZOYE"), stats.NewRNG(1))
	preds := m.Predict(task)
	if acc := accuracy(preds, labels); acc < 0.7 {
		t.Fatalf("AnyMatch accuracy %.3f after training", acc)
	}
}

func TestBalancePairs(t *testing.T) {
	var pool []transferPair
	for i := 0; i < 100; i++ {
		pool = append(pool, transferPair{pair: record.LabeledPair{Match: i < 10}})
	}
	balanced := balancePairs(pool, 50, stats.NewRNG(1))
	pos, neg := 0, 0
	for _, tp := range balanced {
		if tp.pair.Match {
			pos++
		} else {
			neg++
		}
	}
	if pos != 10 || neg != 10 {
		t.Fatalf("balance = %d pos / %d neg, want 10/10", pos, neg)
	}
}

func TestSamplePairsCap(t *testing.T) {
	var pool []transferPair
	for i := 0; i < 100; i++ {
		pool = append(pool, transferPair{})
	}
	if got := samplePairs(pool, 30, stats.NewRNG(2)); len(got) != 30 {
		t.Fatalf("samplePairs returned %d", len(got))
	}
	if got := samplePairs(pool, 200, stats.NewRNG(2)); len(got) != 100 {
		t.Fatalf("under-capacity sample returned %d", len(got))
	}
}

func TestUnicornTrainPredict(t *testing.T) {
	task, labels := miniTask(t, "FOZA", 100)
	m := NewUnicorn()
	m.TrainCap = 600
	m.AuxCap = 100
	m.Train(transferFor("FOZA"), stats.NewRNG(1))
	preds := m.Predict(task)
	if acc := accuracy(preds, labels); acc < 0.7 {
		t.Fatalf("Unicorn accuracy %.3f after training", acc)
	}
}

func TestShuffledOrderIsPermutation(t *testing.T) {
	order := ShuffledOrder(6, stats.NewRNG(9))
	seen := make([]bool, 6)
	for _, i := range order {
		if i < 0 || i >= 6 || seen[i] {
			t.Fatalf("invalid permutation %v", order)
		}
		seen[i] = true
	}
}
