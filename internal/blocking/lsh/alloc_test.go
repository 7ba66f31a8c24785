//go:build !race

// Compiled out under -race: the race detector defeats sync.Pool, so
// AllocsPerRun means nothing there.

package lsh

import "testing"

// TestProbeStoredZeroAlloc gates the path BenchmarkDedupProbeStored
// times: a pooled prober on the warm 20k index, candidates appended into
// the caller's buffer.
func TestProbeStoredZeroAlloc(t *testing.T) {
	_, ix := benchIndex(t)
	p := ix.AcquireProber()
	defer ReleaseProber(p)
	buf := make([]Candidate, 0, ix.cfg.TopK)
	p.ProbeStored(0, buf, false) // grow the stamp table before measuring
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		buf = p.ProbeStored(i%ix.Len(), buf[:0], false)
		i++
	})
	if allocs != 0 {
		t.Fatalf("ProbeStored on a warm index: %v allocs/op, want 0", allocs)
	}
}
