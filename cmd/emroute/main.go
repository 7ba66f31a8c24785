// Command emroute sweeps the resilient routing cascade (internal/route
// over internal/backend) across confidence thresholds and failure
// profiles, and emits the quality-vs-dollars frontier the hybrid-matcher
// direction of the paper's Finding 1 asks for: per threshold, the F1 the
// cascade delivers and the Table-6 dollars it spends per 1,000 pairs —
// with every retry, hedge and failed attempt charged.
//
// Each sweep arm (threshold × failure profile) runs its own router on
// its own virtual clock, pairs scored in deterministic order, with every
// injected failure a pure function of (seed, backend, pair bytes,
// attempt). Arms are independent, so -parallel only changes wall time:
// the output is byte-identical at any parallelism level.
//
// Usage:
//
//	emroute [-targets ABT] [-tiers stringsim,anymatch-gpt2,gpt-4]
//	        [-thresholds 0,0.3,0.5,0.7,0.9,1] [-inject both]
//	        [-seed 1] [-max-pairs 0] [-parallel 0] [-out frontier.csv]
//	        [-smoke] [-slo-assert 'f1>=0.3,cost<=$0.25,p99<=100ms']
//
// -slo-assert evaluates the named objectives (internal/slo grammar)
// against every clean arm's measured F1, cost per 1K pairs, latency
// quantiles and degraded rate, and exits non-zero on any violation —
// the labeled-traffic complement of emserve's online burn-rate engine
// (F1 floors only make sense here, where the test pairs carry labels).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/cost"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/slo"
	"repro/internal/stats"
)

func parseFlags(args []string) (sweepConfig, error) {
	var cfg sweepConfig
	fs := flag.NewFlagSet("emroute", flag.ContinueOnError)
	fs.StringVar(&cfg.Targets, "targets", "ABT", "comma-separated target datasets (LODO: tiers train on every other dataset)")
	fs.StringVar(&cfg.Tiers, "tiers", "stringsim,anymatch-gpt2,gpt-4", "comma-separated cascade tiers, cheap to expensive")
	fs.StringVar(&cfg.Thresholds, "thresholds", "0,0.3,0.5,0.7,0.9,1", "comma-separated confidence thresholds to sweep")
	fs.StringVar(&cfg.Inject, "inject", "both", "failure profiles to run: clean, injected, or both")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "seed for training and failure injection")
	fs.IntVar(&cfg.MaxPairs, "max-pairs", 0, "cap test pairs per target (0 = the full fixed test set)")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "arm workers: 0 = one per CPU, 1 = sequential (output is identical either way)")
	fs.StringVar(&cfg.Out, "out", "", "write the frontier as CSV to this file")
	fs.BoolVar(&cfg.Smoke, "smoke", false, "run self-checks on the sweep results and exit non-zero on violation")
	fs.StringVar(&cfg.SLOAssert, "slo-assert", "", "assert these SLOs (e.g. 'f1>=0.3,cost<=$0.25,p99<=100ms') against every clean arm; exit non-zero on violation")
	return cfg, fs.Parse(args)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "emroute:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "emroute:", err)
		os.Exit(1)
	}
}

type sweepConfig struct {
	Targets    string
	Tiers      string
	Thresholds string
	Inject     string
	Seed       uint64
	MaxPairs   int
	Parallel   int
	Out        string
	Smoke      bool
	SLOAssert  string
}

// arm is one sweep cell: a confidence threshold under a failure mode.
type arm struct {
	Threshold float64
	Injected  bool
}

// armResult aggregates one arm across all targets.
type armResult struct {
	arm
	Pairs         int
	Conf          eval.Confusion
	Tokens        int64
	CostUSD       float64
	Escalations   int
	Failovers     int
	Retries       int
	Hedges        int
	Degraded      int
	Attempts      int
	Transitions   int64
	P50, P95, P99 time.Duration
	// Decisions are the per-pair routed decisions in sweep order, kept
	// for the smoke checks' offline bit-identity comparison.
	Decisions []bool
}

// targetSet is one target's fixed labeled test slice.
type targetSet struct {
	name   string
	task   matchers.Task
	labels []bool
}

func run(cfg sweepConfig, stdout io.Writer) error {
	tierNames := splitList(cfg.Tiers)
	if len(tierNames) == 0 {
		return fmt.Errorf("no tiers")
	}
	thresholds, err := parseThresholds(cfg.Thresholds)
	if err != nil {
		return err
	}
	var modes []bool
	switch cfg.Inject {
	case "clean":
		modes = []bool{false}
	case "injected":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("bad -inject %q: want clean, injected or both", cfg.Inject)
	}
	targets := splitList(cfg.Targets)
	if len(targets) == 0 {
		return fmt.Errorf("no targets")
	}

	// Tier matchers and their Table-6 rates. The rate lookup fails closed:
	// a tier without a Table-6 entry aborts the sweep rather than being
	// silently priced free.
	tierMatchers := make([]matchers.Matcher, len(tierNames))
	tierRates := make([]float64, len(tierNames))
	needsTraining := make([]bool, len(tierNames))
	for i, name := range tierNames {
		m, training, err := matchers.ByName(name)
		if err != nil {
			return err
		}
		rate, err := cost.RateForMatcher(name)
		if err != nil {
			return err
		}
		tierMatchers[i], tierRates[i], needsTraining[i] = m, rate, training
	}

	// The benchmark, its fixed test partitions, and LODO-compliant
	// training: tiers that need transfer data train once on every dataset
	// except the sweep's targets, then serve all arms read-only.
	h := eval.NewHarness(eval.Config{Parallelism: cfg.Parallel})
	excluded := make(map[string]bool, len(targets))
	for _, t := range targets {
		if h.Dataset(t) == nil {
			return fmt.Errorf("unknown target dataset %q", t)
		}
		excluded[t] = true
	}
	var transfer []*record.Dataset
	for _, d := range h.Datasets() {
		if !excluded[d.Name] {
			transfer = append(transfer, d)
		}
	}
	rng := stats.NewRNG(cfg.Seed)
	for i, m := range tierMatchers {
		if needsTraining[i] {
			fmt.Fprintf(os.Stderr, "training %s on %d transfer datasets...\n", m.Name(), len(transfer))
			start := time.Now()
			m.Train(transfer, rng.Split("train:"+tierNames[i]))
			fmt.Fprintf(os.Stderr, "trained in %.1fs\n", time.Since(start).Seconds())
		} else {
			m.Train(nil, rng.Split("train:"+tierNames[i]))
		}
	}

	sets := make([]targetSet, len(targets))
	totalPairs := 0
	for i, name := range targets {
		d := h.Dataset(name)
		idx := h.TestIndices(name)
		if cfg.MaxPairs > 0 && len(idx) > cfg.MaxPairs {
			idx = idx[:cfg.MaxPairs]
		}
		ts := targetSet{name: name}
		ts.task = matchers.Task{
			Pairs:      make([]record.Pair, len(idx)),
			Schema:     d.Schema,
			TargetName: name,
			Opts:       record.SerializeOptions{Cache: h.SerializationCache()},
		}
		ts.labels = make([]bool, len(idx))
		for j, k := range idx {
			ts.task.Pairs[j] = d.Pairs[k].Pair
			ts.labels[j] = d.Pairs[k].Match
		}
		totalPairs += len(idx)
		sets[i] = ts
	}

	// The sweep arms. Each arm owns a router and a virtual clock; arms
	// share only read-only state (trained matchers, datasets, caches), so
	// par.Do over arms is deterministic by construction.
	arms := make([]arm, 0, len(thresholds)*len(modes))
	for _, injected := range modes {
		for _, thr := range thresholds {
			arms = append(arms, arm{Threshold: thr, Injected: injected})
		}
	}
	results := make([]armResult, len(arms))
	_ = par.Do(len(arms), par.Workers(cfg.Parallel), func(i int) error {
		results[i] = runArm(arms[i], tierNames, tierMatchers, tierRates, sets, cfg.Seed)
		return nil
	})

	printTable(stdout, tierNames, results, totalPairs)
	if cfg.Out != "" {
		if err := writeCSV(cfg.Out, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d arms to %s\n", len(results), cfg.Out)
	}
	if cfg.Smoke {
		if err := smokeCheck(results, thresholds, modes, tierMatchers[0], sets); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		fmt.Fprintln(stdout, "SMOKE OK")
	}
	if cfg.SLOAssert != "" {
		n, err := assertSLOs(cfg.SLOAssert, results)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "SLO ASSERT OK: %d clean arms\n", n)
	}
	return nil
}

// assertSLOs applies the one-shot SLO check to every clean arm's
// measured outcomes. Only clean arms are judged: injected arms measure
// resilience, and their degraded quality is the point of the exercise,
// not a violation. Returns the number of arms checked.
func assertSLOs(assert string, results []armResult) (int, error) {
	specs, err := slo.ParseSpecs(assert)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range results {
		if r.Injected || r.Pairs == 0 {
			continue
		}
		degraded := float64(r.Degraded) / float64(r.Pairs)
		m := slo.Measures{
			LatencyP50US: float64(r.P50.Microseconds()),
			LatencyP95US: float64(r.P95.Microseconds()),
			LatencyP99US: float64(r.P99.Microseconds()),
			ShedRate:     degraded,
			ErrorRate:    degraded,
			CostPer1K:    r.costPer1K(),
			// Confusion.F1 is a percentage; the SLO grammar speaks fractions.
			F1:    r.Conf.F1() / 100,
			HasF1: true,
		}
		vs, err := slo.Check(specs, m)
		if err != nil {
			return n, err
		}
		if len(vs) > 0 {
			return n, fmt.Errorf("slo-assert: clean arm thr=%g: %s", r.Threshold, slo.FormatViolations(vs))
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("slo-assert: no clean arms to judge (need -inject clean or both)")
	}
	return n, nil
}

// runArm routes every target's test pairs through a fresh router under
// the arm's threshold and failure mode, and aggregates quality, cost and
// resilience measures.
func runArm(a arm, tierNames []string, tierMatchers []matchers.Matcher, tierRates []float64, sets []targetSet, seed uint64) armResult {
	backends := make([]backend.Backend, len(tierNames))
	for i, name := range tierNames {
		p := backend.ProfileFor(name)
		if !a.Injected {
			p = p.Clean()
		}
		backends[i] = backend.NewSim(name, tierMatchers[i], p, tierRates[i], seed)
	}
	r, err := route.New(route.Config{
		Confidence: a.Threshold,
		Deadline:   30 * time.Second,
		Clock:      &clock.Virtual{},
	}, backends...)
	if err != nil {
		panic(err) // config is validated before the sweep starts
	}

	res := armResult{arm: a}
	var latencies []time.Duration
	var outcomes []route.Outcome
	for _, ts := range sets {
		outcomes = r.RoutePairs(ts.task, outcomes)
		for i, o := range outcomes {
			res.Conf.Observe(o.Match, ts.labels[i])
			res.Decisions = append(res.Decisions, o.Match)
			res.Tokens += o.Tokens
			res.CostUSD += o.CostUSD
			res.Escalations += o.Escalations
			res.Failovers += o.Failovers
			res.Retries += o.Retries
			res.Hedges += o.Hedges
			res.Attempts += o.Attempts
			if o.Degraded {
				res.Degraded++
			}
			latencies = append(latencies, o.Latency)
		}
		res.Pairs += len(ts.task.Pairs)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50 = stats.QuantileDur(latencies, 0.50)
	res.P95 = stats.QuantileDur(latencies, 0.95)
	res.P99 = stats.QuantileDur(latencies, 0.99)
	for _, t := range r.Stats().Tiers {
		res.Transitions += t.Transitions
	}
	return res
}

// costPer1K returns the arm's dollars per 1,000 routed pairs.
func (r armResult) costPer1K() float64 {
	if r.Pairs == 0 {
		return 0
	}
	return r.CostUSD / float64(r.Pairs) * 1000
}

// escalationRate returns escalations per routed pair.
func (r armResult) escalationRate() float64 {
	if r.Pairs == 0 {
		return 0
	}
	return float64(r.Escalations) / float64(r.Pairs)
}

func (r armResult) mode() string {
	if r.Injected {
		return "injected"
	}
	return "clean"
}

func printTable(w io.Writer, tierNames []string, results []armResult, totalPairs int) {
	fmt.Fprintf(w, "cascade %s over %d pairs\n", strings.Join(tierNames, " -> "), totalPairs)
	fmt.Fprintf(w, "%-9s %5s | %6s %6s %6s | %11s %6s | %5s %5s %5s %4s | %9s %9s %5s\n",
		"profile", "thr", "F1", "prec", "rec", "$/1K pairs", "esc", "retry", "fail", "hedge", "degr", "p50", "p99", "trans")
	for _, r := range results {
		fmt.Fprintf(w, "%-9s %5.2f | %6.2f %6.2f %6.2f | %11.4f %5.1f%% | %5d %5d %5d %4d | %9s %9s %5d\n",
			r.mode(), r.Threshold,
			r.Conf.F1(), 100*r.Conf.Precision(), 100*r.Conf.Recall(),
			r.costPer1K(), 100*r.escalationRate(),
			r.Retries, r.Failovers, r.Hedges, r.Degraded,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Transitions)
	}
}

func writeCSV(path string, results []armResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "profile,threshold,pairs,f1,precision,recall,usd_per_1k_pairs,tokens,escalation_rate,retries,failovers,hedges,degraded,attempts,p50_us,p95_us,p99_us,breaker_transitions")
	for _, r := range results {
		fmt.Fprintf(f, "%s,%g,%d,%.4f,%.4f,%.4f,%.6f,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			r.mode(), r.Threshold, r.Pairs,
			r.Conf.F1(), r.Conf.Precision(), r.Conf.Recall(),
			r.costPer1K(), r.Tokens, r.escalationRate(),
			r.Retries, r.Failovers, r.Hedges, r.Degraded, r.Attempts,
			r.P50.Microseconds(), r.P95.Microseconds(), r.P99.Microseconds(), r.Transitions)
	}
	return nil
}

// smokeCheck enforces the sweep's structural invariants; any violation
// is a bug in the routing stack, not a tuning matter.
func smokeCheck(results []armResult, thresholds []float64, modes []bool, tier0 matchers.Matcher, sets []targetSet) error {
	if len(thresholds) < 4 {
		return fmt.Errorf("only %d thresholds; the frontier needs at least 4", len(thresholds))
	}
	byArm := make(map[arm]*armResult, len(results))
	for i := range results {
		byArm[results[i].arm] = &results[i]
	}
	hasClean, hasInjected := false, false
	for _, m := range modes {
		if m {
			hasInjected = true
		} else {
			hasClean = true
		}
	}

	if hasClean {
		// Threshold 0 never escalates and a clean profile never fails, so
		// the cascade must be bit-identical to tier 0 offline.
		r0 := byArm[arm{Threshold: thresholds[0], Injected: false}]
		if thresholds[0] == 0 && r0 != nil {
			var offline []bool
			for _, ts := range sets {
				offline = append(offline, tier0.Predict(ts.task)...)
			}
			for i := range offline {
				if r0.Decisions[i] != offline[i] {
					return fmt.Errorf("threshold-0 clean decision %d diverges from offline %s", i, tier0.Name())
				}
			}
		}
		var prevCost, prevEsc float64 = -1, -1
		for _, thr := range thresholds {
			r := byArm[arm{Threshold: thr, Injected: false}]
			if r == nil {
				continue
			}
			if r.Degraded != 0 || r.Retries != 0 || r.Failovers != 0 {
				return fmt.Errorf("clean arm thr=%g saw degraded=%d retries=%d failovers=%d; want all zero",
					thr, r.Degraded, r.Retries, r.Failovers)
			}
			if c := r.CostUSD; c < prevCost {
				return fmt.Errorf("clean cost not monotone: thr=%g costs $%g < previous $%g", thr, c, prevCost)
			} else {
				prevCost = c
			}
			if e := r.escalationRate(); e < prevEsc {
				return fmt.Errorf("clean escalation rate not monotone at thr=%g", thr)
			} else {
				prevEsc = e
			}
		}
	}
	if hasInjected {
		totalRetries := 0
		for _, thr := range thresholds {
			r := byArm[arm{Threshold: thr, Injected: true}]
			if r == nil {
				continue
			}
			totalRetries += r.Retries
			if hasClean {
				c := byArm[arm{Threshold: thr, Injected: false}]
				if c != nil && r.CostUSD < c.CostUSD {
					return fmt.Errorf("injected arm thr=%g costs $%g < clean $%g; failed attempts are not being charged",
						thr, r.CostUSD, c.CostUSD)
				}
			}
		}
		if totalRetries == 0 {
			return fmt.Errorf("failure injection produced zero retries across all thresholds")
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseThresholds(s string) ([]float64, error) {
	var out []float64
	prev := -1.0
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q: %w", f, err)
		}
		if v < prev {
			return nil, fmt.Errorf("thresholds must be ascending (%g after %g)", v, prev)
		}
		prev = v
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thresholds")
	}
	return out, nil
}
