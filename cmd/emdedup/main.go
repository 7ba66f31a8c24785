// Command emdedup runs the dataset-scale deduplication workload end to
// end: generate (or stream) a synthetic raw-record corpus, build the
// sharded MinHash/LSH candidate index, emit verified candidate pairs,
// match them, and resolve entity clusters — the pipeline that starts from
// millions of records instead of a pre-blocked pair file.
//
// Usage:
//
//	emdedup -n 100000                        # bulk pipeline, Jaccard matcher
//	emdedup -n 1000000 -compare              # + token-blocker comparison
//	emdedup -n 20000 -matcher stringsim      # registry matcher on the candidates
//	emdedup -n 50000 -stream                 # incremental ingestion via internal/stream
//
// The run is deterministic for a fixed -seed at any -parallel level: the
// cluster output written by -out is byte-identical whether the run used
// one worker or one per core (pinned by the package test).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dedup"
	"repro/internal/obs"
)

// config is emdedup's command line: the pipeline configuration plus what
// to report and check around it.
type config struct {
	dedup.Config
	compare   bool
	cmpExact  int
	outPath   string
	tracePath string
	dumpMx    bool
	smoke     bool
}

func parseFlags(args []string) (config, error) {
	cfg := config{Config: dedup.DefaultConfig()}
	fs := flag.NewFlagSet("emdedup", flag.ContinueOnError)
	fs.IntVar(&cfg.N, "n", cfg.N, "synthetic corpus size (records)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "workers: 0 = one per CPU, 1 = sequential")
	fs.IntVar(&cfg.LSH.Bands, "bands", 0, "LSH bands (0 = default)")
	fs.IntVar(&cfg.LSH.Rows, "rows", 0, "MinHash rows per band (0 = default)")
	fs.IntVar(&cfg.LSH.TopK, "topk", 0, "max candidates per record (0 = default)")
	fs.Float64Var(&cfg.LSH.MinJaccard, "minjaccard", 0, "candidate verification threshold (0 = default)")
	fs.StringVar(&cfg.Matcher, "matcher", cfg.Matcher, `pair matcher: "jaccard" or a registry matcher name`)
	fs.Float64Var(&cfg.Threshold, "threshold", cfg.Threshold, "edge-acceptance score for clustering")
	fs.IntVar(&cfg.MaxClusterSize, "maxcluster", cfg.MaxClusterSize, "re-split clusters larger than this (0 = no cap)")
	fs.BoolVar(&cfg.Stream, "stream", false, "ingest incrementally through stream.Ingestor instead of bulk build")
	fs.BoolVar(&cfg.compare, "compare", false, "also run the token blocker and report comparisons/recall side by side")
	fs.IntVar(&cfg.cmpExact, "compare-exact", dedup.CompareExactDefault, "largest corpus the comparison runs the token blocker on directly (larger extrapolates)")
	fs.StringVar(&cfg.outPath, "out", "", "write the cluster partition to this file")
	fs.StringVar(&cfg.tracePath, "trace", "", "write a JSONL span trace of the run to this file")
	fs.BoolVar(&cfg.dumpMx, "metrics-dump", false, "dump the run's metrics registry as JSON to stderr on exit")
	fs.BoolVar(&cfg.smoke, "smoke", false, "self-check: exit non-zero unless recall/quality/comparison floors hold")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.LSH.Seed = cfg.Seed
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "emdedup:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "emdedup:", err)
		os.Exit(1)
	}
}

// run executes the pipeline and writes the human report to w. Everything
// written through report() is deterministic for a fixed seed; wall-times
// go to stderr so output files stay comparable across runs.
func run(cfg config, w io.Writer) error {
	if cfg.compare && cfg.Stream {
		return fmt.Errorf("-compare requires the bulk pipeline (drop -stream)")
	}
	ctx := context.Background()
	var tracer *obs.Tracer
	if cfg.tracePath != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	var reg *obs.Registry
	if cfg.dumpMx {
		reg = obs.NewRegistry(obs.Label{Key: "cmd", Value: "emdedup"})
	}

	res, err := dedup.Run(ctx, cfg.Config)
	if err != nil {
		return err
	}

	mode := "bulk"
	if cfg.Stream {
		mode = "stream"
	}
	lc := res.Index // defaulted config echo comes from the index stats side
	fmt.Fprintf(w, "emdedup: %d records, %d true entities (seed %d, %s, matcher %s)\n",
		res.Records, res.Entities, cfg.Seed, mode, cfg.Matcher)
	fmt.Fprintf(w, "index: %d buckets, %d postings (%d capped), %d comparisons verified\n",
		lc.Buckets, lc.Postings, lc.Skipped, lc.Verifies)
	if !cfg.Stream {
		fmt.Fprintf(w, "candidates: %d pairs, blocking recall %.4f\n", res.CandidatePairs, res.BlockRecall)
		fmt.Fprintf(w, "match: %d edges accepted at threshold %.2f\n", res.Edges, cfg.Threshold)
	}
	fmt.Fprintf(w, "clusters: %d (largest %d) — pairwise precision %.4f recall %.4f F1 %.4f\n",
		len(res.Clusters), largest(res), res.Metrics.Precision, res.Metrics.Recall, res.Metrics.F1)
	fmt.Fprintf(os.Stderr, "stages: ingest %s  build %s  probe %s  match %s  cluster %s\n",
		res.Times.Ingest.Round(1e6), res.Times.Build.Round(1e6), res.Times.Probe.Round(1e6),
		res.Times.Match.Round(1e6), res.Times.Cluster.Round(1e6))

	var cr *dedup.CompareResult
	if cfg.compare {
		cr = dedup.Compare(cfg.Config, res, cfg.cmpExact)
		tag := ""
		if cr.Extrapolated {
			tag = fmt.Sprintf(" (extrapolated from samples %v; recall/time at %d)", cr.SampleSizes, cr.SampleSizes[len(cr.SampleSizes)-1])
		}
		fmt.Fprintf(w, "compare: token blocker%s\n", tag)
		fmt.Fprintf(w, "  token: %d comparisons, %d candidates, recall %.4f\n", cr.TokenComparisons, cr.TokenCandidates, cr.TokenRecall)
		lshTag := ""
		if cr.Extrapolated {
			lshTag = fmt.Sprintf(" (%.4f at sample %d)", cr.LSHSampleRecall, cr.SampleSizes[len(cr.SampleSizes)-1])
		}
		fmt.Fprintf(w, "  lsh:   %d comparisons, %d candidates, recall %.4f%s\n", cr.LSHComparisons, cr.LSHCandidates, cr.LSHRecall, lshTag)
		fmt.Fprintf(w, "  lsh does %.1fx fewer comparisons\n", cr.Ratio)
		fmt.Fprintf(os.Stderr, "compare wall time: token %s, lsh build+probe %s\n", cr.TokenTime.Round(1e6), cr.LSHTime.Round(1e6))
	}

	if cfg.outPath != "" {
		if err := writeClusters(cfg.outPath, res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d clusters to %s\n", len(res.Clusters), cfg.outPath)
	}
	if err := tracer.WriteFile(cfg.tracePath, os.Stderr); err != nil {
		return err
	}
	if reg != nil {
		registerResult(reg, res)
		if err := reg.WriteJSON(os.Stderr); err != nil {
			return err
		}
	}
	if cfg.smoke {
		return smokeCheck(cfg.Config, res, cr)
	}
	return nil
}

// registerResult exposes the run's counters through the obs registry for
// -metrics-dump.
func registerResult(reg *obs.Registry, res *dedup.Result) {
	reg.Gauge("emdedup_records", "corpus size").Set(int64(res.Records))
	reg.Gauge("emdedup_entities", "true entity count").Set(int64(res.Entities))
	reg.Gauge("emdedup_index_buckets", "occupied LSH buckets").Set(int64(res.Index.Buckets))
	reg.Gauge("emdedup_index_postings", "bucket postings").Set(res.Index.Postings)
	reg.Gauge("emdedup_comparisons", "Jaccard verifications performed").Set(res.Index.Verifies)
	reg.Gauge("emdedup_candidates", "candidate pairs emitted").Set(res.CandidatePairs)
	reg.Gauge("emdedup_edges", "accepted match edges").Set(int64(res.Edges))
	reg.Gauge("emdedup_clusters", "resolved clusters").Set(int64(len(res.Clusters)))
	for stage, d := range map[string]int64{
		"ingest":  res.Times.Ingest.Microseconds(),
		"build":   res.Times.Build.Microseconds(),
		"probe":   res.Times.Probe.Microseconds(),
		"match":   res.Times.Match.Microseconds(),
		"cluster": res.Times.Cluster.Microseconds(),
	} {
		reg.Gauge("emdedup_stage_"+stage+"_us", "stage wall time (µs)").Set(d)
	}
}

// smokeCheck is the dedup stage of make smoke: candidate recall, cluster quality
// and (in compare mode) the comparison advantage must clear their floors.
func smokeCheck(cfg dedup.Config, res *dedup.Result, cr *dedup.CompareResult) error {
	var fails []string
	if !cfg.Stream && res.BlockRecall < 0.90 {
		fails = append(fails, fmt.Sprintf("blocking recall %.4f < 0.90", res.BlockRecall))
	}
	if res.Metrics.F1 < 0.80 {
		fails = append(fails, fmt.Sprintf("cluster F1 %.4f < 0.80", res.Metrics.F1))
	}
	if cr != nil {
		if cr.LSHComparisons >= cr.TokenComparisons {
			fails = append(fails, fmt.Sprintf("lsh comparisons %d not below token %d", cr.LSHComparisons, cr.TokenComparisons))
		}
		// TokenRecall is measured at the largest sample when extrapolating,
		// so hold it against the LSH recall at that same sample size.
		lshRecall := cr.LSHRecall
		if cr.Extrapolated {
			lshRecall = cr.LSHSampleRecall
		}
		if lshRecall+1e-9 < cr.TokenRecall {
			fails = append(fails, fmt.Sprintf("lsh recall %.4f below token recall %.4f", lshRecall, cr.TokenRecall))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("smoke check failed: %s", strings.Join(fails, "; "))
	}
	fmt.Fprintln(os.Stderr, "smoke check passed")
	return nil
}

// writeClusters writes the full partition, one cluster per line, members
// tab-separated — deterministic for a fixed seed at any parallelism.
func writeClusters(path string, res *dedup.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, c := range res.Clusters {
		for i, m := range c.Members {
			if i > 0 {
				bw.WriteByte('\t')
			}
			bw.WriteString(m)
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func largest(res *dedup.Result) int {
	if len(res.Clusters) == 0 {
		return 0
	}
	return res.Clusters[0].Size()
}
