package crossem

// Benchmark harness: one benchmark per table and figure of the paper, plus
// microbenchmarks for the substrate components. Each table/figure bench
// runs a reduced but end-to-end version of the experiment (one seed,
// reduced test caps) so `go test -bench=.` finishes in minutes; the full
// five-seed protocol is regenerated with `go run ./cmd/emstudy <table>`.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/stats"
)

// benchHarness is shared across benchmarks (dataset generation is the
// common setup cost; the harness itself is read-only after construction).
var (
	benchHarnessOnce sync.Once
	benchHarnessInst *eval.Harness
)

func benchHarness() *eval.Harness {
	benchHarnessOnce.Do(func() {
		benchHarnessInst = eval.NewHarness(eval.Config{Seeds: []uint64{1}, MaxTest: 400})
	})
	return benchHarnessInst
}

// benchQuality caches a reduced Table 3 run (the fast matcher subset) for
// the figure and finding benchmarks.
var (
	benchQualityOnce sync.Once
	benchQualityRes  *core.QualityResults
)

func benchQuality(b *testing.B) *core.QualityResults {
	benchQualityOnce.Do(func() {
		specs := core.Table3Specs()
		// The prompted and parameter-free rows cover every figure/finding
		// code path at a fraction of the fine-tuning cost.
		fast := []core.MatcherSpec{
			specs[0], specs[1], // StringSim, ZeroER
			specs[8], specs[9], specs[10], // open-weight MatchGPT
			specs[11], specs[12], specs[13], // commercial MatchGPT
			specs[7], // Jellyfish
		}
		q, err := core.RunQuality(benchHarness(), fast, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchQualityRes = q
	})
	return benchQualityRes
}

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := datasets.GenerateAll(eval.DatasetSeed)
		if len(ds) != 11 {
			b.Fatal("wrong dataset count")
		}
	}
}

// --- Table 3 -----------------------------------------------------------

// BenchmarkTable3CrossDatasetF1 runs the leave-one-dataset-out evaluation
// for one parameter-free and one prompted matcher across all 11 targets —
// the Table 3 protocol end to end at reduced scale.
func BenchmarkTable3CrossDatasetF1(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		for _, factory := range []eval.MatcherFactory{
			func() matchers.Matcher { return matchers.NewStringSim() },
			func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4) },
		} {
			if _, err := h.EvaluateTargets(factory, datasets.Names()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3FineTunedMatcher measures one fine-tuned matcher's full
// train-and-evaluate cycle on a single target (the unit of work Table 3
// repeats 55 times per fine-tuned row).
func BenchmarkTable3FineTunedMatcher(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		m := matchers.NewAnyMatchGPT2()
		m.PerClass = 600
		m.Train(h.Transfer("FOZA"), stats.NewRNG(1))
		d := h.Dataset("FOZA")
		var pairs []record.Pair
		for _, j := range h.TestIndices("FOZA") {
			pairs = append(pairs, d.Pairs[j].Pair)
		}
		m.Predict(matchers.Task{Pairs: pairs, Schema: d.Schema, TargetName: "FOZA"})
	}
}

// --- Parallel evaluation engine ----------------------------------------

// BenchmarkEvaluateAllParallel measures the engine's scaling on one
// prompted matcher across all 11 targets. The 1-worker variant runs the
// cells inline and is the baseline; higher worker counts produce identical
// results.
func BenchmarkEvaluateAllParallel(b *testing.B) {
	h := benchHarness()
	defer h.SetParallelism(0)
	factory := func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4) }
	// Warm the shared serialization cache so every worker count measures
	// the same steady state (otherwise the first variant pays all misses).
	h.SetParallelism(1)
	if _, err := h.EvaluateTargets(factory, datasets.Names()); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			h.SetParallelism(workers)
			for i := 0; i < b.N; i++ {
				if _, err := h.EvaluateTargets(factory, datasets.Names()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Parallel runs the reduced Table 3 subset (the benchQuality
// matcher set) through RunQuality's shared worker pool — the wall-clock
// speedup measurement reported in EXPERIMENTS.md.
func BenchmarkTable3Parallel(b *testing.B) {
	h := benchHarness()
	defer h.SetParallelism(0)
	specs := core.Table3Specs()
	fast := []core.MatcherSpec{
		specs[0], specs[1], specs[7], specs[8], specs[9],
		specs[10], specs[11], specs[12], specs[13],
	}
	h.SetParallelism(1)
	if _, err := core.RunQuality(h, fast, nil); err != nil { // cache warm-up
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			h.SetParallelism(workers)
			for i := 0; i < b.N; i++ {
				if _, err := core.RunQuality(h, fast, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 4 -----------------------------------------------------------

func BenchmarkTable4Demonstrations(b *testing.B) {
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		for _, strategy := range []lm.DemoStrategy{lm.DemoNone, lm.DemoHandPicked, lm.DemoRandom} {
			factory := func() matchers.Matcher { return matchers.NewMatchGPTWithDemos(lm.GPT4, strategy) }
			if _, err := h.EvaluateTarget(factory, "BEER"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table 5 -----------------------------------------------------------

func BenchmarkTable5Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := cost.Table5()
		if len(rows) != 9 {
			b.Fatal("wrong Table 5 row count")
		}
	}
}

// --- Table 6 -----------------------------------------------------------

func BenchmarkTable6Cost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := cost.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("wrong Table 6 row count")
		}
	}
}

// --- Figures -----------------------------------------------------------

func BenchmarkFigure3CostQuality(b *testing.B) {
	q := benchQuality(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure3(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4SizeQuality(b *testing.B) {
	q := benchQuality(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Figure4(q)
	}
}

// --- Findings ----------------------------------------------------------

func BenchmarkFinding5DomainTTest(b *testing.B) {
	q := benchQuality(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Finding5(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFinding6SkewCorrelation(b *testing.B) {
	q := benchQuality(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Finding6(q)
	}
}

// --- Component microbenchmarks ------------------------------------------

func BenchmarkPromptModelPerPair(b *testing.B) {
	d := datasets.MustGenerate("WAAM", eval.DatasetSeed)
	m := lm.NewPromptModel(lm.GPT4, stats.NewRNG(1))
	for i := 0; i < 200; i++ {
		m.ObserveCorpus(record.SerializeRecord(d.Pairs[i].Left, record.SerializeOptions{}))
	}
	pairs := make([]record.Pair, 64)
	for i := range pairs {
		pairs[i] = d.Pairs[i].Pair
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchBatch(pairs, record.SerializeOptions{})
	}
}

func BenchmarkEncoderPerPair(b *testing.B) {
	d := datasets.MustGenerate("ABT", eval.DatasetSeed)
	enc := lm.NewEncoder(lm.GPT2.Capacity)
	p := d.Pairs[0].Pair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(p, record.SerializeOptions{})
	}
}

func BenchmarkZeroERBatch(b *testing.B) {
	d := datasets.MustGenerate("FOZA", eval.DatasetSeed)
	var pairs []record.Pair
	for _, p := range d.Pairs {
		pairs = append(pairs, p.Pair)
	}
	task := matchers.Task{Pairs: pairs, Schema: d.Schema}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := matchers.NewZeroER()
		m.Predict(task)
	}
}

func BenchmarkStringSimBatch(b *testing.B) {
	d := datasets.MustGenerate("BEER", eval.DatasetSeed)
	var pairs []record.Pair
	for _, p := range d.Pairs {
		pairs = append(pairs, p.Pair)
	}
	task := matchers.Task{Pairs: pairs}
	m := matchers.NewStringSim()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(task)
	}
}
