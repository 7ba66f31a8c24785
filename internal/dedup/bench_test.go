package dedup

import (
	"context"
	"os"
	"strconv"
	"testing"
)

// BenchmarkDedupPipeline runs the full bulk pipeline (generate → build →
// probe → match → cluster) on a 10k corpus per iteration.
func BenchmarkDedupPipeline(b *testing.B) {
	cfg := DefaultConfig()
	cfg.N = 10000
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cfg.N)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(res.BlockRecall, "block_recall")
}

// BenchmarkDedupCompare scores LSH against the token blocker and reports
// the headline comparison metrics (run with -benchtime=1x; the token side
// is the expensive half). DEDUP_COMPARE_N overrides the corpus size —
// EXPERIMENTS.md's 1M row was recorded at N=1000000, where the token side
// extrapolates from 25k/100k samples.
func BenchmarkDedupCompare(b *testing.B) {
	n := 20000
	exact := 5000
	if s := os.Getenv("DEDUP_COMPARE_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("bad DEDUP_COMPARE_N %q", s)
		}
		n = v
		exact = CompareExactDefault
	}
	cfg := DefaultConfig()
	cfg.N = n
	var cr *CompareResult
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		cr = Compare(cfg, res, exact)
	}
	b.ReportMetric(float64(n), "records")
	b.ReportMetric(float64(cr.LSHComparisons), "lsh_comps")
	b.ReportMetric(float64(cr.TokenComparisons), "token_comps")
	b.ReportMetric(cr.Ratio, "comps_ratio")
	b.ReportMetric(cr.LSHRecall, "lsh_recall")
	b.ReportMetric(cr.TokenRecall, "token_recall")
	if cr.Extrapolated {
		// TokenRecall is a sample measurement past the exact cap; report
		// the LSH recall at that same sample next to it.
		b.ReportMetric(cr.LSHSampleRecall, "lsh_sample_recall")
	}
}
