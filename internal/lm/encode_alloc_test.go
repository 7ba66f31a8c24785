//go:build !race

// Compiled out under -race: the race detector defeats sync.Pool, so
// AllocsPerRun means nothing there.

package lm

import (
	"testing"

	"repro/internal/mlcore"
	"repro/internal/record"
)

// TestEncodeIntoAllocCeiling gates a warm pair through EncodeInto with a
// held vector, at each fine-tuned matcher's encoder capacity: every text
// derivation is cached and the vector has room, so the per-pair evidence
// slices come from a pooled scratch and nothing else allocates. The
// ceiling is the measured count, integer-rounded over the runs.
func TestEncodeIntoAllocCeiling(t *testing.T) {
	const ceiling = 0
	var pairs []record.Pair
	for _, d := range benchmarkPool() {
		if d.Name == "ABT" {
			for _, p := range d.Pairs[:64] {
				pairs = append(pairs, p.Pair)
			}
		}
	}
	opts := record.SerializeOptions{Cache: record.NewSerializeCache()}
	for _, prof := range []Profile{BERT, DeBERTa, LLaMA32} {
		enc := NewEncoder(prof.Capacity)
		var vec mlcore.SparseVec
		for _, p := range pairs {
			enc.EncodeInto(&vec, p, opts)
		}
		i := 0
		allocs := testing.AllocsPerRun(len(pairs), func() {
			enc.EncodeInto(&vec, pairs[i%len(pairs)], opts)
			i++
		})
		t.Logf("%s: %v allocs per warm pair", prof.Name, allocs)
		if allocs > ceiling {
			t.Errorf("%s: EncodeInto makes %v allocs per warm pair, ceiling %d", prof.Name, allocs, ceiling)
		}
	}
}
