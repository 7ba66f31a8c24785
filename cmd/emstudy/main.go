// Command emstudy regenerates the tables and figures of "A Deep Dive Into
// Cross-Dataset Entity Matching with Large and Small Language Models"
// (EDBT 2025) on the synthetic reproduction benchmark.
//
// Usage:
//
//	emstudy table1               dataset statistics
//	emstudy table3 [-seeds N]    cross-dataset F1 of the 14 matchers
//	emstudy table4 [-seeds N]    demonstration strategies for prompted LLMs
//	emstudy table5               throughput simulation (4xA100)
//	emstudy table6               cost per 1K tokens
//	emstudy figure3 [-seeds N]   cost vs quality scatter
//	emstudy figure4 [-seeds N]   model size vs quality scatter
//	emstudy findings [-seeds N]  Finding 5 t-test and Finding 6 correlation
//	emstudy stages               per-stage run report of a traced LODO slice
//	emstudy verify               dataset disjointness check (§5.1)
//	emstudy all [-seeds N]       everything above
//
// Every evaluating command accepts -trace out.jsonl (record a span trace
// of the run; inspect with emtool trace) and -metrics-dump (dump the
// worker-pool metrics registry as JSON on exit). Both are pure observers:
// traced runs score bit-identically to untraced ones.
//
// Quality-table commands also accept -journal run.journal (record every
// completed (matcher, target, seed) cell) and -resume (replay completed
// cells from the journal and run only the rest). Kill a long table3 run
// halfway, rerun with -resume, and the output is bit-identical to an
// uninterrupted run.
//
// Table 3/4 runs fine-tune matchers live; with the paper's five seeds a
// full table takes tens of minutes on a laptop. Use -seeds 1 for a quick
// look.
//
// Evaluation runs on one worker per CPU by default; -parallel N pins the
// worker count (1 forces the sequential engine). Parallel runs produce
// output identical to sequential runs — every (matcher, target, seed)
// cell derives its randomness from its own seeded stream, and results
// merge back in table order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"path/filepath"
	"strings"

	"repro/internal/ablation"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/csvio"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/report"
	"repro/internal/snap"
)

// tracer is non-nil when -trace is set; quality runs and the stages
// command record their spans into it, and main writes the JSONL file on
// exit. Tracing never changes results (see eval.Config.Tracer).
var tracer *obs.Tracer

// Run-journal state (-journal / -resume, in cli): quality-table commands
// record every completed (matcher, target, seed) cell into a JSONL
// journal, and -resume replays completed cells instead of re-running
// them. A resumed run produces output bit-identical to an uninterrupted
// one: the journal stores exact confusion counts, and its header pins the
// study, the benchmark fingerprint and the seed list.
var (
	cli     config        // the parsed command line
	journal *snap.Journal // opened lazily by the first quality run
)

// config is emstudy's command line: the subcommand, its optional
// positional argument, and the flags every subcommand shares.
type config struct {
	cmd, arg    string
	seeds       []uint64
	parallel    int
	tracePath   string
	metricsDump bool
	journalPath string
	journalOn   bool
	resume      bool
}

func parseFlags(args []string) (config, error) {
	if len(args) == 0 {
		return config{}, fmt.Errorf("no command")
	}
	cfg := config{cmd: args[0]}
	fs := flag.NewFlagSet(cfg.cmd, flag.ContinueOnError)
	nSeeds := fs.Int("seeds", 5, "number of repetition seeds (the paper uses 5)")
	fs.IntVar(&cfg.parallel, "parallel", 0, "evaluation workers: 0 = one per CPU, 1 = sequential (results are identical either way)")
	fs.StringVar(&cfg.tracePath, "trace", "", "write a JSONL span trace of the evaluation to this file")
	fs.BoolVar(&cfg.metricsDump, "metrics-dump", false, "dump the worker-pool metrics registry as JSON to stderr on exit")
	fs.StringVar(&cfg.journalPath, "journal", "", "record completed evaluation cells into this JSONL run journal (default emstudy-<cmd>.journal)")
	fs.BoolVar(&cfg.resume, "resume", false, "resume from the run journal: replay completed cells, run only the rest")
	if err := fs.Parse(args[1:]); err != nil {
		return cfg, err
	}
	cfg.arg = fs.Arg(0)
	cfg.journalOn = cfg.journalPath != "" || cfg.resume
	if cfg.journalPath == "" {
		cfg.journalPath = "emstudy-" + cfg.cmd + ".journal"
	}
	cfg.seeds = eval.DefaultSeeds
	if *nSeeds < len(cfg.seeds) && *nSeeds > 0 {
		cfg.seeds = cfg.seeds[:*nSeeds]
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "emstudy:", err)
		usage()
		os.Exit(2)
	}
	if err := execute(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "emstudy:", err)
		os.Exit(1)
	}
}

// execute runs the command between the observers' set-up and their
// output: the metrics dump, the journal close and the trace file.
func execute(cfg config) error {
	cli = cfg
	if cfg.tracePath != "" {
		tracer = obs.NewTracer()
	}
	if cfg.metricsDump {
		reg := obs.NewRegistry(obs.Label{Key: "cmd", Value: "emstudy"})
		eval.EnablePoolMetrics(reg)
		defer func() {
			eval.EnablePoolMetrics(nil)
			_ = reg.WriteJSON(os.Stderr)
		}()
	}
	err := run(cfg.cmd, cfg.seeds, cfg.parallel, cfg.arg)
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return tracer.WriteFile(cfg.tracePath, os.Stderr)
}

func run(cmd string, seeds []uint64, parallel int, arg string) error {
	switch cmd {
	case "table1":
		fmt.Println(core.Table1())
	case "table5":
		fmt.Println(core.Table5())
	case "table6":
		t, err := core.Table6()
		if err != nil {
			return err
		}
		fmt.Println(t)
	case "verify":
		return verify()
	case "export":
		return export(arg)
	case "ablation":
		return runAblations(seeds, parallel)
	case "budget":
		h := core.NewHarnessParallel(seeds[:1], parallel)
		sets := make(map[string][]record.Pair)
		for _, d := range h.Datasets() {
			var pairs []record.Pair
			for _, j := range h.TestIndices(d.Name) {
				pairs = append(pairs, d.Pairs[j].Pair)
			}
			sets[d.Name] = pairs
		}
		// 5 seeds × 3 prompting variants per commercial model (Tables 3+4).
		budget, err := cost.EstimateStudyBudget(sets, 15, cost.FourA100)
		if err != nil {
			return err
		}
		fmt.Println(cost.RenderBudget(budget))
	case "errors":
		target := arg
		if target == "" {
			target = "AMGO"
		}
		h := core.NewHarnessParallel(seeds[:1], parallel)
		report, err := core.AnalyzeErrors(h, lm.GPT4, target, 5)
		if err != nil {
			return err
		}
		fmt.Println(report.Render())
	case "cascade":
		h := core.NewHarnessParallel(seeds[:1], parallel)
		results, err := core.RunCascadeStudy(h, []string{"ABT", "DBAC", "FOZA", "AMGO", "WAAM"})
		if err != nil {
			return err
		}
		fmt.Println(core.RenderCascade(results))
	case "stages":
		return runStages(seeds, parallel)
	case "rag":
		q, err := runQuality(core.Table4RAGSpecs(), seeds, parallel)
		if err != nil {
			return err
		}
		fmt.Println(core.QualityTable("Extension: retrieval-augmented demonstrations vs prompting without demonstrations.", q).Render())
	case "table3", "figure3", "figure4", "findings":
		q, err := runTable3(seeds, parallel)
		if err != nil {
			return err
		}
		return renderFromTable3(cmd, q)
	case "table4":
		q, err := runQuality(core.Table4Specs(), seeds, parallel)
		if err != nil {
			return err
		}
		fmt.Println(core.QualityTable("Table 4: Average F1 scores for cross-dataset EM with different demonstration strategies.", q).Render())
	case "all":
		fmt.Println(core.Table1())
		if err := verify(); err != nil {
			return err
		}
		q3, err := runTable3(seeds, parallel)
		if err != nil {
			return err
		}
		for _, sub := range []string{"table3", "figure3", "figure4", "findings"} {
			if err := renderFromTable3(sub, q3); err != nil {
				return err
			}
		}
		q4, err := runQuality(core.Table4Specs(), seeds, parallel)
		if err != nil {
			return err
		}
		fmt.Println(core.QualityTable("Table 4: Average F1 scores for cross-dataset EM with different demonstration strategies.", q4).Render())
		fmt.Println(core.Table5())
		t6, err := core.Table6()
		if err != nil {
			return err
		}
		fmt.Println(t6)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

func runTable3(seeds []uint64, parallel int) (*core.QualityResults, error) {
	return runQuality(core.Table3Specs(), seeds, parallel)
}

// installJournal opens the run journal on the first quality run of the
// process (later runs of an `all` invocation reuse it — spec labels are
// unique across the study's tables) and installs it into the harness.
func installJournal(h *eval.Harness, seeds []uint64) error {
	if !cli.journalOn {
		return nil
	}
	if journal == nil {
		header := snap.JournalHeader{
			Study:       "emstudy-" + cli.cmd,
			Fingerprint: h.BenchmarkFingerprint(),
			Seeds:       seeds,
		}
		var err error
		if cli.resume {
			journal, err = snap.ResumeJournal(cli.journalPath, header)
		} else {
			journal, err = snap.CreateJournal(cli.journalPath, header)
		}
		if err != nil {
			return err
		}
		if n := journal.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "  resuming %s: %d completed cells replayed\n", cli.journalPath, n)
		}
	}
	h.SetJournal(journal)
	return nil
}

func runQuality(specs []core.MatcherSpec, seeds []uint64, parallel int) (*core.QualityResults, error) {
	h := core.NewHarnessParallel(seeds, parallel)
	h.SetTracer(tracer)
	if err := installJournal(h, seeds); err != nil {
		return nil, err
	}
	start := time.Now()
	q, err := core.RunQuality(h, specs, func(label string) {
		fmt.Fprintf(os.Stderr, "  [%6.1fs] %s done\n", time.Since(start).Seconds(), label)
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}

func renderFromTable3(cmd string, q *core.QualityResults) error {
	switch cmd {
	case "table3":
		fmt.Println(core.QualityTable("Table 3: Average F1 scores and standard deviations for cross-dataset entity matching\n(*best*, _second best_, (seen during training)).", q).Render())
	case "figure3":
		f, err := core.Figure3(q)
		if err != nil {
			return err
		}
		fmt.Println(f)
	case "figure4":
		fmt.Println(core.Figure4(q))
	case "findings":
		f5, err := core.Finding5(q)
		if err != nil {
			return err
		}
		f6 := core.Finding6(q)
		fmt.Println(core.RenderFindings(f5, f6))
	}
	return nil
}

// runStages runs a small LODO slice (StringSim and MatchGPT [GPT-4] on
// two targets, one seed) under the span tracer and prints the folded
// per-stage run report: time, pairs, prompt tokens and Table-6 dollars
// per (matcher, target, stage), plus serialization-cache effectiveness.
// With -trace the raw spans are written out too.
func runStages(seeds []uint64, parallel int) error {
	if len(seeds) > 1 {
		seeds = seeds[:1] // stage timings are about proportions; one seed suffices
	}
	tr := tracer
	if tr == nil {
		tr = obs.NewTracer()
	}
	h := core.NewHarnessParallel(seeds, parallel)
	h.SetTracer(tr)
	factories := []eval.MatcherFactory{
		func() matchers.Matcher { return matchers.NewStringSim() },
		func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4) },
	}
	for _, factory := range factories {
		for _, target := range []string{"ABT", "AMGO"} {
			if _, err := h.EvaluateTarget(factory, target); err != nil {
				return err
			}
		}
	}
	rep := report.FoldSpans(tr.Records())
	rep.AddCache(h.SerializationCache().Stats())
	fmt.Println(rep.Render())
	return nil
}

// export writes the 11 benchmark datasets as pair CSVs into dir (default
// "data"), so they can be inspected or fed to emmatch.
func export(dir string) error {
	if dir == "" {
		dir = "data"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		path := filepath.Join(dir, strings.ToLower(d.Name)+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := csvio.WriteDataset(f, d); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d pairs)\n", path, len(d.Pairs))
	}
	return nil
}

// runAblations executes the three design-choice ablation studies on a
// reduced protocol (the DESIGN.md ablation index).
func runAblations(seeds []uint64, parallel int) error {
	if len(seeds) > 2 {
		seeds = seeds[:2] // ablations are about deltas; two seeds suffice
	}
	h := core.NewHarnessParallel(seeds, parallel)
	studies := []func(*eval.Harness, []string) (*ablation.Study, error){
		ablation.PromptEngine,
		ablation.AnyMatchPipeline,
		ablation.EncoderCapacity,
	}
	for _, build := range studies {
		s, err := build(h, ablation.DefaultTargets)
		if err != nil {
			return err
		}
		fmt.Println(s.Render())
	}
	return nil
}

func verify() error {
	ds := datasets.GenerateAll(eval.DatasetSeed)
	overlaps := datasets.VerifyDisjoint(ds)
	if len(overlaps) > 0 {
		for _, o := range overlaps {
			fmt.Println("OVERLAP:", o)
		}
		return fmt.Errorf("%d tuple overlaps between datasets", len(overlaps))
	}
	fmt.Println("Dataset disjointness check: zero tuple overlap between every pair of datasets (11 datasets).")
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: emstudy <table1|table3|table4|table5|table6|figure3|figure4|findings|ablation|rag|cascade|errors|budget|stages|verify|export|all> [-seeds N] [-parallel N] [-trace out.jsonl] [-metrics-dump] [-journal run.journal] [-resume] [dir]`)
}
