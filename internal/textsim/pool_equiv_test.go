package textsim_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/textsim"
)

// TestRatcliffPoolEquivalence holds the indexed kernel, its decision-only
// form and the shared bound to the dense-table reference on every labelled
// pair of the benchmark pool, serialised as serving serialises it: ratio
// and decisions exactly, no tolerance. -short takes every eighth pair.
func TestRatcliffPoolEquivalence(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	opts := serve.CanonicalKeyOptions(record.NewSerializeCache())
	sc := textsim.AcquireScratch()
	defer sc.Release()
	pairs, n := 0, 0
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		for _, p := range d.Pairs {
			if n++; n%stride != 0 {
				continue
			}
			pairs++
			textsim.CheckRatcliff(t, sc, record.SerializeRecord(p.Left, opts), record.SerializeRecord(p.Right, opts), 0.3, 0.5, 0.7)
			if t.Failed() {
				t.Fatalf("first mismatch at pair %d of the pool, in %s", n, d.Name)
			}
		}
	}
	if want := 85568 / stride; pairs != want {
		t.Errorf("compared %d pairs, want %d: the pool changed size", pairs, want)
	}
}
