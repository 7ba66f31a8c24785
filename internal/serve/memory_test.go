package serve

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/record"
)

// TestServeDistinctPairsHeapFlat serves 51,200 distinct pool pairs, 64 per
// Submit, through a stringsim server whose prediction cache holds 1,024
// entries, and reads the live heap after a forced GC at the halfway and
// final checkpoints. Once the bounded cache is full nothing the server
// keeps may grow with the number of distinct pairs seen, so the second
// half may add at most a tenth of what the first added (or 1 MiB).
func TestServeDistinctPairsHeapFlat(t *testing.T) {
	const total, perCall = 51200, 64
	seen := make(map[string]bool, total)
	pairs := make([]record.Pair, 0, total)
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		for _, p := range d.Pairs {
			if k := string(AppendPairKey(nil, p.Pair, CanonicalKeyOptions(nil))); len(pairs) < total && !seen[k] {
				seen[k] = true
				pairs = append(pairs, p.Pair)
			}
		}
	}
	if len(pairs) < total {
		t.Fatalf("the pool has %d distinct pairs, want %d", len(pairs), total)
	}

	srv, err := New(trained(t, "stringsim"), Config{MatcherName: "stringsim", CacheCapacity: 1024, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	submitAll := func(half []record.Pair) {
		for i := 0; i < len(half); i += perCall {
			if _, err := srv.Submit(context.Background(), half[i:i+perCall]); err != nil {
				t.Fatal(err)
			}
		}
	}
	start := liveHeap()
	submitAll(pairs[:total/2])
	mid := liveHeap()
	submitAll(pairs[total/2:])
	end := liveHeap()
	runtime.KeepAlive(pairs)
	first, second := int64(mid)-int64(start), int64(end)-int64(mid)
	t.Logf("live heap %d B at start, +%d B over the first %d pairs, +%d B over the second", start, first, total/2, second)
	if limit := max(first/10, 1<<20); second > limit {
		t.Errorf("live heap grew %d B over the second %d distinct pairs, more than %d B (first half: %d B)",
			second, total/2, limit, first)
	}
}
