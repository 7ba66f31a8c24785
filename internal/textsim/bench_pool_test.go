package textsim_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/textsim"
)

// benchPool is every eighth labelled pair of the benchmark pool,
// serialised as serving serialises it.
var benchPool = sync.OnceValue(func() (pairs [][2]string) {
	opts := serve.CanonicalKeyOptions(nil)
	all, _ := poolPairs()
	for i := 7; i < len(all); i += 8 {
		pairs = append(pairs, [2]string{record.SerializeRecord(all[i].Left, opts), record.SerializeRecord(all[i].Right, opts)})
	}
	return pairs
})

// BenchmarkRatcliffExceedsPool times StringSim's decision, ratio > 0.5,
// over every eighth pool pair on one held scratch, the way a serving
// batch calls it. It reports the time per pair and the share of pairs the
// upper bound alone settles (bound ≤ 0.5, so no block is searched).
func BenchmarkRatcliffExceedsPool(b *testing.B) {
	pairs := benchPool()
	settled := 0
	for _, p := range pairs {
		if textsim.RatcliffUpperBound(p[0], p[1]) <= 0.5 {
			settled++
		}
	}
	sc := textsim.AcquireScratch()
	defer sc.Release()
	b.ResetTimer()
	start := time.Now()
	for range b.N {
		for _, p := range pairs {
			sc.RatcliffExceeds(p[0], p[1], 0.5)
		}
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*len(pairs)), "us/pair")
	b.ReportMetric(float64(settled)/float64(len(pairs)), "bound_settled")
}
