package eval

import (
	"context"
	"fmt"

	"repro/internal/datasets"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/snap"
	"repro/internal/stats"
)

// DatasetSeed fixes the benchmark data: the datasets themselves are
// constant across experimental repetitions (only serialization, training
// randomness and demonstration selection vary per run seed), mirroring
// fixed benchmark files on disk.
const DatasetSeed = 42

// MaxTestSamples is the test-set cap the paper adopts from the MatchGPT
// study (1,250 randomly chosen samples, identical across baselines).
const MaxTestSamples = 1250

// DefaultSeeds are the five repetition seeds used throughout the study.
var DefaultSeeds = []uint64{1, 2, 3, 4, 5}

// Config controls a leave-one-dataset-out evaluation.
type Config struct {
	// Seeds are the repetition seeds (the paper uses five).
	Seeds []uint64
	// MaxTest caps the test-set size (0 means MaxTestSamples).
	MaxTest int
	// Parallelism is the worker count of the evaluation engine: n > 0
	// runs n workers (1 runs the cells inline, in table order), and
	// anything else (the zero value included) means one worker per
	// available CPU. Every worker count produces identical results —
	// every (matcher, target, seed) cell is independently seeded and
	// results merge back in table order — so this knob trades nothing but
	// heat.
	Parallelism int
	// Tracer, when non-nil, records per-cell spans (cell → train /
	// predict / score, with matcher stage spans under predict) into the
	// observability layer. Tracing never influences results: all
	// randomness still derives from the cell's seeded RNG stream, so a
	// traced run scores bit-identically to an untraced one.
	Tracer *obs.Tracer
}

// DefaultConfig returns the paper's protocol: five seeds, 1,250-sample
// test cap.
func DefaultConfig() Config {
	return Config{Seeds: DefaultSeeds, MaxTest: MaxTestSamples}
}

// Result aggregates one matcher's scores on one target dataset across
// repetitions.
type Result struct {
	Matcher string
	Target  string
	// F1s holds the per-seed F1 scores (percentage scale).
	F1s []float64
	// Confusions holds the per-seed confusion matrices.
	Confusions []Confusion
}

// Mean returns the mean F1 across seeds.
func (r Result) Mean() float64 { return stats.Mean(r.F1s) }

// Std returns the F1 standard deviation across seeds.
func (r Result) Std() float64 { return stats.StdDev(r.F1s) }

// MatcherFactory constructs a fresh matcher instance per run, so runs
// never share trained state. The engine calls it from its worker
// goroutines, several at once when Parallelism allows.
type MatcherFactory func() matchers.Matcher

// Harness runs the leave-one-dataset-out protocol. It owns the generated
// benchmark and the per-target test downsampling (fixed across all
// baselines, per the paper).
type Harness struct {
	cfg  Config
	all  []*record.Dataset
	test map[string][]int // target -> fixed test indices
	// sercache is the shared serialization cache installed into every
	// task's SerializeOptions; the benchmark records are immutable, so all
	// runs — sequential or parallel — share one read-mostly cache.
	sercache *record.SerializeCache
	// tctx is the tracing context every cell starts its spans under:
	// context.Background() when tracing is off (the nil fast path of
	// obs.Start) or an obs.WithTracer context when on.
	tctx context.Context
	// journal, when non-nil, records every completed evaluation cell and
	// short-circuits cells it already holds — the mechanism behind
	// resumable runs. Journal hits bypass training entirely, which is
	// sound because a cell's confusion counts are a pure function of
	// (matcher label, target, seed) under the fixed benchmark the journal
	// header fingerprints.
	journal *snap.Journal
}

// NewHarness generates the benchmark and fixes the test partitions.
// Dataset generation itself fans out across the configured parallelism
// (each dataset derives from an independent seeded stream, so the result
// is identical at any worker count).
func NewHarness(cfg Config) *Harness {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = DefaultSeeds
	}
	if cfg.MaxTest <= 0 {
		cfg.MaxTest = MaxTestSamples
	}
	h := &Harness{
		cfg:      cfg,
		all:      datasets.GenerateAllParallel(DatasetSeed, par.Workers(cfg.Parallelism)),
		test:     make(map[string][]int),
		sercache: record.NewSerializeCache(),
		tctx:     obs.WithTracer(context.Background(), cfg.Tracer),
	}
	for _, d := range h.all {
		h.test[d.Name] = sampleTest(d, cfg.MaxTest)
	}
	return h
}

// SetParallelism adjusts the worker count after construction (see
// Config.Parallelism for the knob's semantics). It must not be called
// concurrently with an evaluation.
func (h *Harness) SetParallelism(n int) { h.cfg.Parallelism = n }

// SetTracer installs (or, with nil, removes) a span tracer after
// construction. Must not be called concurrently with an evaluation.
func (h *Harness) SetTracer(t *obs.Tracer) {
	h.cfg.Tracer = t
	h.tctx = obs.WithTracer(context.Background(), t)
}

// SetJournal installs (or, with nil, removes) the run journal consulted
// and appended by labeled evaluations. Must not be called concurrently
// with an evaluation.
func (h *Harness) SetJournal(j *snap.Journal) { h.journal = j }

// BenchmarkFingerprint returns a content hash of the whole generated
// benchmark — the fingerprint a run journal header pins, so a journal
// can never resume against different data.
func (h *Harness) BenchmarkFingerprint() string {
	return record.CombineFingerprints(record.DatasetFingerprints(h.all))
}

// Parallelism returns the resolved worker count of the harness.
func (h *Harness) Parallelism() int { return par.Workers(h.cfg.Parallelism) }

// SerializationCache exposes the harness's shared cache, for benchmarks
// and cache-effectiveness reporting.
func (h *Harness) SerializationCache() *record.SerializeCache { return h.sercache }

// sampleTest draws the fixed ≤cap test indices for a dataset. The draw is
// stratified-free uniform (as in the MatchGPT protocol) but deterministic,
// so every baseline sees the identical test set.
func sampleTest(d *record.Dataset, cap int) []int {
	if len(d.Pairs) <= cap {
		idx := make([]int, len(d.Pairs))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rng := stats.NewRNG(DatasetSeed).Split("test:" + d.Name)
	return rng.Sample(len(d.Pairs), cap)
}

// Datasets returns the generated benchmark datasets in Table 1 order.
func (h *Harness) Datasets() []*record.Dataset { return h.all }

// Dataset returns the named dataset, or nil.
func (h *Harness) Dataset(name string) *record.Dataset {
	for _, d := range h.all {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// TestIndices returns the fixed test indices for a target.
func (h *Harness) TestIndices(target string) []int { return h.test[target] }

// Transfer returns the ten transfer datasets for a target (every dataset
// except the target).
func (h *Harness) Transfer(target string) []*record.Dataset {
	var out []*record.Dataset
	for _, d := range h.all {
		if d.Name != target {
			out = append(out, d)
		}
	}
	return out
}

// targetInputs holds the evaluation inputs every cell of one target
// shares: the fixed test pairs and labels and the transfer datasets. All
// fields are read-only once built, so cells may consume them from any
// goroutine.
type targetInputs struct {
	d        *record.Dataset
	pairs    []record.Pair
	labels   []bool
	transfer []*record.Dataset
}

// targetInputs resolves the shared inputs for a target, erroring on
// unknown dataset names.
func (h *Harness) targetInputs(target string) (*targetInputs, error) {
	d := h.Dataset(target)
	if d == nil {
		return nil, fmt.Errorf("eval: unknown target dataset %q", target)
	}
	testIdx := h.test[target]
	in := &targetInputs{
		d:        d,
		pairs:    make([]record.Pair, len(testIdx)),
		labels:   make([]bool, len(testIdx)),
		transfer: h.Transfer(target),
	}
	for i, j := range testIdx {
		in.pairs[i] = d.Pairs[j].Pair
		in.labels[i] = d.Pairs[j].Match
	}
	return in, nil
}

// cell is the outcome of one (matcher, target, seed) evaluation — the
// atomic unit the evaluation engine schedules.
type cell struct {
	name string
	conf Confusion
}

// runCell trains a fresh matcher instance on the transfer datasets and
// scores it on the target's fixed test set under one seed. All randomness
// derives from the (seed, target, matcher) triple, so cells are
// independent of each other and of execution order.
func (h *Harness) runCell(factory MatcherFactory, in *targetInputs, seed uint64) cell {
	m := factory()
	ctx, span := obs.Start(h.tctx, "cell")
	span.SetStr("matcher", m.Name())
	span.SetStr("target", in.d.Name)
	span.SetInt("seed", int64(seed))
	rng := stats.NewRNG(seed).Split("run:" + in.d.Name + ":" + m.Name())
	_, tspan := obs.Start(ctx, "train")
	m.Train(in.transfer, rng.Split("train"))
	tspan.End()
	pctx, pspan := obs.Start(ctx, "predict")
	pspan.SetInt("pairs", int64(len(in.pairs)))
	task := matchers.Task{
		Pairs: in.pairs,
		Ctx:   pctx,
		Opts: record.SerializeOptions{
			ColumnOrder: matchers.ShuffledOrder(in.d.Schema.NumAttrs(), rng.Split("serialize")),
			Cache:       h.sercache,
		},
		Schema:     in.d.Schema,
		TargetName: in.d.Name,
	}
	preds := m.Predict(task)
	pspan.End()
	_, sspan := obs.Start(ctx, "score")
	conf := Score(preds, in.labels)
	sspan.End()
	span.End()
	return cell{name: m.Name(), conf: conf}
}

// runCellJournaled is runCell behind the run journal: a journal hit
// returns the recorded cell without constructing or training a matcher;
// a miss runs the cell live and records it. label is the journal key
// (the spec label — unique per table row, unlike Name(), which several
// Table 4 rows share); an empty label disables journaling for the cell.
func (h *Harness) runCellJournaled(factory MatcherFactory, label string, in *targetInputs, seed uint64) (cell, error) {
	if h.journal == nil || label == "" {
		return h.runCell(factory, in, seed), nil
	}
	if rec, ok := h.journal.Lookup(label, in.d.Name, seed); ok {
		return cell{name: rec.Display, conf: Confusion{TP: rec.TP, FP: rec.FP, TN: rec.TN, FN: rec.FN}}, nil
	}
	c := h.runCell(factory, in, seed)
	err := h.journal.Record(snap.CellResult{
		Matcher: label, Display: c.name, Target: in.d.Name, Seed: seed,
		TP: c.conf.TP, FP: c.conf.FP, TN: c.conf.TN, FN: c.conf.FN,
	})
	return c, err
}

// mergeCells folds per-seed cells (in seed order) into a Result.
func mergeCells(target string, cells []cell) Result {
	res := Result{Target: target}
	for _, c := range cells {
		if res.Matcher == "" {
			res.Matcher = c.name
		}
		res.Confusions = append(res.Confusions, c.conf)
		res.F1s = append(res.F1s, c.conf.F1())
	}
	return res
}

// MacroMean computes the per-seed macro-averaged F1 across targets, then
// returns its mean and standard deviation — the "Mean" column of Tables 3
// and 4.
func MacroMean(results []Result) (mean, std float64) {
	if len(results) == 0 {
		return 0, 0
	}
	nSeeds := len(results[0].F1s)
	perSeed := make([]float64, nSeeds)
	for s := 0; s < nSeeds; s++ {
		sum := 0.0
		for _, r := range results {
			if s < len(r.F1s) {
				sum += r.F1s[s]
			}
		}
		perSeed[s] = sum / float64(len(results))
	}
	return stats.MeanStd(perSeed)
}
