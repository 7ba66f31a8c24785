//go:build !race

// Compiled out under -race: the race detector defeats sync.Pool, so
// AllocsPerRun means nothing there.

package matchers

import (
	"testing"

	"repro/internal/record"
)

// TestStringSimBatchZeroAlloc gates the matcher call serving makes for
// every micro-batch of misses: 64 pairs through PredictBatchInto with the
// serialisations memoised, as the dispatcher's SerializeCache has them
// after a record's first appearance.
func TestStringSimBatchZeroAlloc(t *testing.T) {
	task, _ := miniTask(t, "ABT", 64)
	task.Opts.Cache = record.NewSerializeCache()
	m := NewStringSim()
	out := make([]bool, len(task.Pairs))
	m.PredictBatchInto(task, out) // warm the cache and the kernel scratch
	if allocs := testing.AllocsPerRun(100, func() { m.PredictBatchInto(task, out) }); allocs != 0 {
		t.Fatalf("StringSim.PredictBatchInto: %v allocs per 64-pair batch, want 0", allocs)
	}
}
