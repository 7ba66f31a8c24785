// Package trainpin_test pins how many profiles one fine-tuning pass adds
// to the process-wide textsim cache. The count depends on what the cache
// already holds, so the test lives in a package of its own: go test runs
// each package in a fresh process, and nothing else here touches the
// cache.
package trainpin_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

var runs atomic.Int64

// TestDittoTrainSharedGrowth trains Ditto for target ABT under seed 1 and
// pins the number of profiles the pass adds to textsim.Shared(): one per
// distinct serialisation it encodes and per distinct attribute value its
// evidence reads. Observing the fine-tuning corpus must add none of its
// own.
func TestDittoTrainSharedGrowth(t *testing.T) {
	if runs.Add(1) > 1 {
		t.Skip("the count holds for a fresh process only (-count > 1)")
	}
	var transfer []*record.Dataset
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		if d.Name != "ABT" {
			transfer = append(transfer, d)
		}
	}
	// Train runs on one goroutine, so each cache miss adds one entry.
	_, before := textsim.Shared().Stats()
	matchers.NewDitto().Train(transfer, stats.NewRNG(1))
	const want = 32807
	_, after := textsim.Shared().Stats()
	if got := after - before; got != want {
		t.Errorf("Ditto.Train grew the shared profile cache by %d entries, want %d", got, want)
	}
}
