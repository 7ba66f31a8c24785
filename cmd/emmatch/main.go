// Command emmatch matches entities between two CSV relations (or scores a
// pre-blocked pair file) with any matcher from the study — the deployable
// face of the reproduction: bring your own data, no labels required.
//
// Usage:
//
//	emmatch -left a.csv -right b.csv [-matcher gpt-4o-mini] [-out pairs.csv]
//	emmatch -pairs candidates.csv   [-matcher anymatch-llama]
//
// Relation files: header row (optionally starting with an "id" column),
// one record per row. Pair files: left_*/right_* columns, optional 0/1
// "label" column — when labels are present, precision/recall/F1 are
// reported.
//
// Matchers: stringsim, zeroer, ditto, unicorn, anymatch-gpt2, anymatch-t5,
// anymatch-llama, jellyfish, mixtral, solar, beluga2, gpt-3.5-turbo,
// gpt-4o-mini, gpt-4 (default). Fine-tuned matchers train on the benchmark
// transfer datasets first (≈minutes); prompted matchers run immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/blocking"
	"repro/internal/csvio"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
)

// config is emmatch's command line.
type config struct {
	leftPath, rightPath, pairsPath, outPath string

	matcher     string
	maxCands    int
	seed        uint64
	parallel    int
	timeout     time.Duration
	tracePath   string
	metricsDump bool
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("emmatch", flag.ContinueOnError)
	fs.StringVar(&cfg.leftPath, "left", "", "left relation CSV")
	fs.StringVar(&cfg.rightPath, "right", "", "right relation CSV")
	fs.StringVar(&cfg.pairsPath, "pairs", "", "pre-blocked pair CSV (alternative to -left/-right)")
	fs.StringVar(&cfg.outPath, "out", "", "write matched pairs to this CSV (default: stdout summary only)")
	fs.StringVar(&cfg.matcher, "matcher", "gpt-4", "matcher to use")
	fs.IntVar(&cfg.maxCands, "candidates", 10, "blocking: max candidates per left record")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	fs.IntVar(&cfg.parallel, "parallel", 0, "workers for transfer-library generation: 0 = one per CPU, 1 = sequential")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "abort matching after this long (0 = no limit)")
	fs.StringVar(&cfg.tracePath, "trace", "", "write a JSONL span trace of the run to this file")
	fs.BoolVar(&cfg.metricsDump, "metrics-dump", false, "dump the run's metrics registry as JSON to stderr on exit")
	return cfg, fs.Parse(args)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "emmatch:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "emmatch:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	// Observability is opt-in and purely observational: tracing and the
	// pool metrics never change predictions.
	var tracer *obs.Tracer
	if cfg.tracePath != "" {
		tracer = obs.NewTracer()
	}
	if cfg.metricsDump {
		reg := obs.NewRegistry(obs.Label{Key: "cmd", Value: "emmatch"})
		eval.EnablePoolMetrics(reg)
		defer func() {
			eval.EnablePoolMetrics(nil)
			_ = reg.WriteJSON(os.Stderr)
		}()
	}

	// Assemble the candidate pairs.
	var pairs []record.LabeledPair
	var schema record.Schema
	hasLabels := false
	switch {
	case cfg.pairsPath != "":
		f, err := os.Open(cfg.pairsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		pairs, schema, hasLabels, err = csvio.ReadPairs(f)
		if err != nil {
			return err
		}
	case cfg.leftPath != "" && cfg.rightPath != "":
		left, leftSchema, err := readRelationFile(cfg.leftPath)
		if err != nil {
			return err
		}
		right, _, err := readRelationFile(cfg.rightPath)
		if err != nil {
			return err
		}
		schema = leftSchema
		blocker := blocking.New(blocking.Config{MaxCandidatesPerRecord: cfg.maxCands})
		for _, p := range blocker.CandidatePairs(left, right) {
			pairs = append(pairs, record.LabeledPair{Pair: p})
		}
		fmt.Fprintf(os.Stderr, "blocking: %d candidate pairs from %d x %d records\n",
			len(pairs), len(left), len(right))
	default:
		return fmt.Errorf("need either -pairs or both -left and -right")
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no candidate pairs to match")
	}

	// Train if the matcher needs transfer data (the benchmark datasets
	// serve as the built-in transfer library).
	ready, err := eval.ReadyMatcher(eval.ReadySpec{
		Matcher: cfg.matcher, Seed: cfg.seed, Parallel: cfg.parallel,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	m := ready.Matcher

	// Match. The context path is shared with cmd/emserve: with no -timeout
	// the batch call runs inline, bit-identical to the plain Predict.
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	ctx = obs.WithTracer(ctx, tracer)
	mctx, mspan := obs.Start(ctx, "match")
	mspan.SetStr("matcher", m.Name())
	mspan.SetInt("pairs", int64(len(pairs)))
	task := matchers.Task{Pairs: make([]record.Pair, len(pairs)), Schema: schema}
	for i, p := range pairs {
		task.Pairs[i] = p.Pair
	}
	start := time.Now()
	preds, err := matchers.PredictCtx(mctx, m, task)
	mspan.End()
	if err != nil {
		return fmt.Errorf("matching aborted after %s: %w", time.Since(start).Round(time.Millisecond), err)
	}
	elapsed := time.Since(start)

	if err := tracer.WriteFile(cfg.tracePath, os.Stderr); err != nil {
		return err
	}

	// Report.
	matched := 0
	var out []record.LabeledPair
	for i, pred := range preds {
		if pred {
			matched++
			out = append(out, record.LabeledPair{Pair: pairs[i].Pair, Match: true})
		}
	}
	fmt.Printf("%s matched %d of %d candidate pairs in %s\n",
		m.Name(), matched, len(pairs), elapsed.Round(time.Millisecond))

	if hasLabels {
		var c eval.Confusion
		for i, pred := range preds {
			c.Observe(pred, pairs[i].Match)
		}
		fmt.Printf("against labels: precision %.1f%%, recall %.1f%%, F1 %.1f\n",
			100*c.Precision(), 100*c.Recall(), c.F1())
	}

	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := csvio.WritePairs(f, out, schema); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d matches to %s\n", len(out), cfg.outPath)
	}
	return nil
}

func readRelationFile(path string) ([]record.Record, record.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, record.Schema{}, err
	}
	defer f.Close()
	return csvio.ReadRelation(f)
}
