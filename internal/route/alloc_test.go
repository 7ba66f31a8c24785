//go:build !race

// Compiled out under -race: the race detector defeats sync.Pool, so
// AllocsPerRun means nothing there.

package route

import "testing"

// TestRouteAllCheapZeroAlloc gates the path BenchmarkRouteAllCheap times:
// 64 pairs decided by the free tier, outcomes written into the caller's
// buffer.
func TestRouteAllCheapZeroAlloc(t *testing.T) {
	r, task, dst := allCheapRouter(t)
	allocs := testing.AllocsPerRun(100, func() { dst = r.RoutePairs(task, dst) })
	if allocs != 0 {
		t.Fatalf("all-cheap RoutePairs: %v allocs per 64-pair batch, want 0", allocs)
	}
	if len(dst) != len(task.Pairs) {
		t.Fatal("short outcome slice")
	}
}
