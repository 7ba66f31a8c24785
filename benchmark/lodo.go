package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/stats"
)

// The lodo-offline workload is one sweep of the paper's protocol, sized
// to fit a run: 3 seeds, 400 test pairs per target, the training-free
// matchers and the cascade on all 11 targets, ditto (the one matcher
// that trains) on 4.
const (
	lodoMaxTest       = 400
	cascadeLabel      = "route[stringsim->gpt-4]"
	cascadeConfidence = 0.3 // the emroute frontier's operating point
)

var (
	lodoSeeds    = []uint64{1, 2, 3}
	lodoMatchers = []string{"stringsim", "zeroer", "jellyfish", "gpt-3.5-turbo", "gpt-4"}
	dittoTargets = []string{"ABT", "DBAC", "FOZA", "BEER"}
)

// cellTimes accumulates what one matcher label spent in Train and
// Predict across the cells of a sweep.
type cellTimes struct {
	trainNs, predictNs []float64
	pairs              int
}

// sweepRecorder is shared by every timedMatcher of a sweep.
type sweepRecorder struct {
	tr *tracer

	mu      sync.Mutex
	cells   int
	cellNs  map[string][]float64 // "matcher/target" → one time per seed
	byLabel map[string]*cellTimes
	routers []*route.Router
	ditto   matchers.Matcher // the last ditto trained, for the snapshot layer
}

func newSweepRecorder(tr *tracer) *sweepRecorder {
	return &sweepRecorder{tr: tr, cellNs: map[string][]float64{}, byLabel: map[string]*cellTimes{}}
}

// timedMatcher decorates a matcher inside the harness with spans around
// Train and Predict. The harness builds one matcher per cell and calls
// Train then Predict on it once, so construction to the end of Predict
// is the cell.
type timedMatcher struct {
	matchers.Matcher
	label string
	rec   *sweepRecorder
	born  time.Time
	cell  int64 // span id of the cell
	seq   int64
	train float64
}

func (rec *sweepRecorder) wrap(label string, m matchers.Matcher) matchers.Matcher {
	rec.mu.Lock()
	rec.cells++
	seq := int64(rec.cells)
	rec.mu.Unlock()
	return &timedMatcher{Matcher: m, label: label, rec: rec, born: time.Now(), seq: seq,
		cell: rec.tr.start("eval.cell", 0, seq)}
}

func (m *timedMatcher) Train(transfer []*record.Dataset, rng *stats.RNG) {
	id := m.rec.tr.start("matchers."+m.label+".train", m.cell, m.seq)
	t0 := time.Now()
	m.Matcher.Train(transfer, rng)
	m.train = float64(time.Since(t0))
	m.rec.tr.end(id)
}

func (m *timedMatcher) Predict(task matchers.Task) []bool {
	id := m.rec.tr.start("matchers."+m.label+".predict", m.cell, m.seq)
	t0 := time.Now()
	preds := m.Matcher.Predict(task)
	predict := float64(time.Since(t0))
	m.rec.tr.end(id)
	m.rec.tr.end(m.cell)

	rec := m.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ct := rec.byLabel[m.label]
	if ct == nil {
		ct = &cellTimes{}
		rec.byLabel[m.label] = ct
	}
	ct.trainNs = append(ct.trainNs, m.train)
	ct.predictNs = append(ct.predictNs, predict)
	ct.pairs += len(task.Pairs)
	key := m.label + "/" + task.TargetName
	rec.cellNs[key] = append(rec.cellNs[key], float64(time.Since(m.born)))
	if m.label == "ditto" {
		rec.ditto = m.Matcher
	}
	return preds
}

func (rec *sweepRecorder) registryFactory(name string) eval.MatcherFactory {
	return func() matchers.Matcher {
		m, _, err := matchers.ByName(name)
		if err != nil {
			panic(err) // names are constants of this file
		}
		return rec.wrap(name, m)
	}
}

// cascadeFactory builds, per cell, the two-tier router stringsim→gpt-4
// with failure injection off and a virtual clock, as a matcher.
func (rec *sweepRecorder) cascadeFactory() eval.MatcherFactory {
	return func() matchers.Matcher {
		tiers := []string{"stringsim", "gpt-4"}
		backends := make([]backend.Backend, len(tiers))
		for i, name := range tiers {
			m, _, err := matchers.ByName(name)
			if err != nil {
				panic(err)
			}
			rate, err := cost.RateForMatcher(name)
			if err != nil {
				panic(err)
			}
			backends[i] = backend.NewSim(name, m, backend.ProfileFor(name).Clean(), rate, 1)
		}
		r, err := route.New(route.Config{
			Confidence: cascadeConfidence,
			Deadline:   30 * time.Second,
			Clock:      &route.VirtualClock{},
		}, backends...)
		if err != nil {
			panic(err)
		}
		rec.mu.Lock()
		rec.routers = append(rec.routers, r)
		rec.mu.Unlock()
		return rec.wrap("cascade", r.AsMatcher(cascadeLabel))
	}
}

// sweepResult is one pass over the protocol.
type sweepResult struct {
	wall    time.Duration
	cpuNs   int64
	mem     memDelta
	results []eval.Result // every (matcher, target) result
	pairs   int           // test pairs scored, all cells and seeds
	cells   int
}

// runSweep evaluates the training-free matchers (and the cascade when
// asked) on all targets, then ditto on dittoOn.
func runSweep(h *eval.Harness, rec *sweepRecorder, names []string, cascade bool, dittoOn []string, nSeeds int) (*sweepResult, error) {
	var factories []eval.MatcherFactory
	for _, n := range names {
		factories = append(factories, rec.registryFactory(n))
	}
	if cascade {
		factories = append(factories, rec.cascadeFactory())
	}
	out := &sweepResult{}
	mem0, cpu0, t0 := readMem(), cpuTime(), time.Now()
	perSpec, err := h.EvaluateSpecs(factories, nil)
	if err != nil {
		return nil, err
	}
	for _, rs := range perSpec {
		out.results = append(out.results, rs...)
	}
	if len(dittoOn) > 0 {
		rs, err := h.EvaluateTargets(rec.registryFactory("ditto"), dittoOn)
		if err != nil {
			return nil, err
		}
		out.results = append(out.results, rs...)
	}
	out.wall, out.cpuNs, out.mem = time.Since(t0), cpuTime()-cpu0, readMem().sub(mem0)
	for _, r := range out.results {
		out.pairs += len(h.TestIndices(r.Target)) * nSeeds
		out.cells += nSeeds
	}
	return out, nil
}

func runLODO(opt options) (*result, error) {
	res := newResult()
	seeds, dittoOn := lodoSeeds, dittoTargets
	if opt.quick {
		seeds, dittoOn = lodoSeeds[:1], dittoTargets[:1]
	}
	h := eval.NewHarness(eval.Config{Seeds: seeds, MaxTest: lodoMaxTest, Parallelism: parallelism()})
	res.set("setup_s", time.Since(processStart).Seconds())

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	rec := newSweepRecorder(tr)
	runtime.GC()
	sw, err := runSweep(h, rec, lodoMatchers, true, dittoOn, len(seeds))
	if err != nil {
		return nil, err
	}
	var cellNs []float64 // every (matcher, target, seed) cell
	for _, perSeed := range rec.cellNs {
		cellNs = append(cellNs, perSeed...)
	}
	finished := len(cellNs)
	res.attempted = sw.cells
	if finished != sw.cells {
		res.failed = sw.cells - finished
		res.problem("%d of %d cells did not finish", res.failed, sw.cells)
	}

	f1 := 0.0
	for _, r := range sw.results {
		f1 += r.Mean()
	}
	res.set("throughput_pairs_s", float64(sw.pairs)/sw.wall.Seconds())
	res.set("cpu_us_per_pair", float64(sw.cpuNs)/1e3/float64(sw.pairs))
	res.set("latency_p50_ms", stats.Median(cellNs)/1e6)
	res.set("macro_f1", f1/float64(len(sw.results)))
	if err := priceSweep(h, rec, len(seeds), res); err != nil {
		return nil, err
	}
	if opt.trace {
		if err := traceLODO(h, rec, sw, len(seeds), res); err != nil {
			return nil, err
		}
	}
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// priceSweep puts dollars next to the sweep: every prompted cell at its
// Table-6 serving rate, plus what the cascade's routers billed.
func priceSweep(h *eval.Harness, rec *sweepRecorder, nSeeds int, res *result) error {
	opts := serve.CanonicalKeyOptions(nil)
	var tokens, testPairs int64
	for _, d := range h.Datasets() {
		for _, i := range h.TestIndices(d.Name) {
			tokens += int64(cost.PairTokens(d.Pairs[i].Pair, opts))
			testPairs++
		}
	}
	var usd float64
	var priced int64
	for _, name := range lodoMatchers {
		model := matchers.PricingModel(name)
		if model == "" {
			continue
		}
		rate, err := cost.ServingRate(model)
		if err != nil {
			return err
		}
		usd += cost.Dollars(tokens, rate) * float64(nSeeds)
		priced += testPairs * int64(nSeeds)
	}
	var routed, escalated int64
	for _, r := range rec.routers {
		st := r.Stats()
		usd += r.TotalCostUSD()
		routed += st.Pairs
		escalated += st.Escalations
	}
	priced += routed
	res.set("cost.usd_per_1k_pairs", usd/float64(priced)*1000)
	res.set("cost.tokens_per_pair", float64(tokens)/float64(testPairs))
	if routed > 0 {
		res.set("route.escalation_ratio", float64(escalated)/float64(routed))
	}
	return nil
}

// traceLODO derives the offline layers from the traced sweep and times
// the ones the sweep does not isolate.
func traceLODO(h *eval.Harness, rec *sweepRecorder, sw *sweepResult, nSeeds int, res *result) error {
	var busy float64
	perPair := func(label string) float64 {
		ct := rec.byLabel[label]
		if ct == nil || ct.pairs == 0 {
			return 0
		}
		sum := 0.0
		for _, ns := range ct.predictNs {
			sum += ns
		}
		return sum / 1e3 / float64(ct.pairs)
	}
	for _, ct := range rec.byLabel {
		for i := range ct.trainNs {
			busy += ct.trainNs[i] + ct.predictNs[i]
		}
	}
	if ct := rec.byLabel["ditto"]; ct != nil {
		res.set("matchers.ditto_train_s", stats.Median(ct.trainNs)/1e9)
	}
	res.set("matchers.ditto_predict_us_per_pair", perPair("ditto"))
	res.set("matchers.zeroer_us_per_pair", perPair("zeroer"))
	res.set("matchers.jellyfish_us_per_pair", perPair("jellyfish"))
	res.set("matchers.gpt4_us_per_pair", perPair("gpt-4"))
	res.set("matchers.stringsim_us_per_pair", perPair("stringsim"))
	res.set("eval.cell_overhead_ratio", 1-busy/(float64(h.Parallelism())*float64(sw.wall)))
	res.set("runtime.allocs_per_pair", float64(sw.mem.mallocs)/float64(sw.pairs))
	res.set("runtime.alloc_bytes_per_pair", float64(sw.mem.bytes)/float64(sw.pairs))
	res.set("runtime.gc_cycles", float64(sw.mem.gcCycles))
	res.set("runtime.gc_pause_ms_total", float64(sw.mem.pauseNs)/1e6)

	tr := rec.tr
	t0 := tr.start("datasets.generate", 0, -1)
	generateDatasets()
	res.set("datasets.generate_s", float64(tr.end(t0))/1e9)

	// The parallel engine on a sub-sweep both sides run with the caches
	// the main sweep left warm: the training-free matchers again,
	// alternately on one worker and on the workload's worker count.
	workers := h.Parallelism()
	walls := map[int][]float64{}
	for round := 0; round < missRounds; round++ {
		for _, n := range []int{1, workers} {
			h.SetParallelism(n)
			id := tr.start(fmt.Sprintf("par.subsweep.%d", n), 0, int64(round))
			if _, err := runSweep(h, newSweepRecorder(nil), lodoMatchers, false, nil, nSeeds); err != nil {
				return err
			}
			walls[n] = append(walls[n], float64(tr.end(id)))
		}
	}
	res.set("par.speedup", stats.Median(walls[1])/stats.Median(walls[workers]))

	if err := routeAllCheap(h, tr, res); err != nil {
		return err
	}
	if rec.ditto != nil {
		if err := snapshotLayer(h, rec.ditto, tr, res); err != nil {
			return err
		}
	}
	return writeSpans(filepath.Join(outDir, "trace-lodo-offline.jsonl"), tr.snapshot())
}

// routeAllCheap times the router when nothing escalates: confidence 0
// makes the first tier's decision final for every pair.
func routeAllCheap(h *eval.Harness, tr *tracer, res *result) error {
	m := matchers.NewStringSim()
	r, err := route.New(route.Config{Confidence: 0, Clock: &route.VirtualClock{}},
		backend.NewSim("stringsim", m, backend.ProfileFor("stringsim").Clean(), 0, 1))
	if err != nil {
		return err
	}
	d := h.Dataset(dittoTargets[0])
	task := matchers.Task{Opts: serve.CanonicalKeyOptions(record.NewSerializeCache())}
	for _, i := range h.TestIndices(d.Name) {
		task.Pairs = append(task.Pairs, d.Pairs[i].Pair)
	}
	var outcomes []route.Outcome
	rounds := make([]float64, layerRounds)
	for k := range rounds {
		id := tr.start("route.allcheap", 0, int64(k))
		outcomes = r.RoutePairs(task, outcomes)
		rounds[k] = float64(tr.end(id))
	}
	res.set("route.allcheap_us_per_pair", stats.Median(rounds)/1e3/float64(len(task.Pairs)))
	return nil
}

// snapshotLayer saves a trained ditto to a store inside the checkout
// and restores it into a fresh instance.
func snapshotLayer(h *eval.Harness, trained matchers.Matcher, tr *tracer, res *result) error {
	dir := filepath.Join(outDir, fmt.Sprintf("snap-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := snap.Open(dir, nil)
	if err != nil {
		return err
	}
	src, ok := trained.(snap.Snapshotter)
	if !ok {
		return fmt.Errorf("%s cannot be snapshotted", trained.Name())
	}
	key := snap.Key{Matcher: "ditto", Config: matchers.ConfigOf(trained), Data: []string{h.BenchmarkFingerprint()}, Seed: 1}
	id := tr.start("snap.save", 0, -1)
	if _, err := store.Save(key, "ditto", src); err != nil {
		return err
	}
	res.set("snap.save_ms", float64(tr.end(id))/1e6)
	fresh, _, err := matchers.ByName("ditto")
	if err != nil {
		return err
	}
	id = tr.start("snap.restore", 0, -1)
	if _, err := store.Load(key, fresh.(snap.Snapshotter)); err != nil {
		return err
	}
	res.set("snap.restore_ms", float64(tr.end(id))/1e6)
	return nil
}
