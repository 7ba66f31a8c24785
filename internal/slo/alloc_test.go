//go:build !race

package slo

import "testing"

// TestDisabledEngineZeroAlloc gates the path BenchmarkSLODisabled times:
// the nil engine every server without -slo ticks and consults.
func TestDisabledEngineZeroAlloc(t *testing.T) {
	var e *Engine
	allocs := testing.AllocsPerRun(1000, func() {
		if e.Tick() != nil || e.Worst() != OK {
			t.Fatal("nil engine not disabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-engine Tick/Worst: %v allocs/op, want 0", allocs)
	}
}
