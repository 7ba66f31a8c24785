//go:build !race

// Compiled out under -race: the race detector defeats sync.Pool, so
// AllocsPerRun means nothing there.

package matchers

import (
	"testing"

	"repro/internal/lm"
	"repro/internal/mlcore"
	"repro/internal/record"
	"repro/internal/stats"
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

// constHead is a prediction head whose forward pass allocates nothing.
type constHead struct{}

func (constHead) Scorer() func(mlcore.SparseVec) float64 { return constProb }

func constProb(mlcore.SparseVec) float64 { return 0.5 }

// TestPredictHeadAllocCeiling gates the classify stage of the fine-tuned
// matchers: each head's forward pass allocates its scratch once per
// 64-pair batch, not once per pair. The head's share is the batch's
// allocations less those of the same batch through a head that allocates
// nothing, so the encoder's own allocations do not enter it.
func TestPredictHeadAllocCeiling(t *testing.T) {
	const ceiling = 8 // allocations per batch, whatever its size
	task, _ := miniTask(t, "ABT", 64)
	transfer := smallTransfer("ABT", 60)
	ditto, unicorn, anymatch := NewDitto(), NewUnicorn(), NewAnyMatchLLaMA()
	for _, m := range []Matcher{ditto, unicorn, anymatch} {
		m.Train(transfer, stats.NewRNG(1))
	}
	cases := []struct {
		name string
		enc  *lm.Encoder
		prep func(record.Pair) record.Pair
		head probHead
	}{
		{"ditto", ditto.enc, ditto.summarize, ditto.head},
		{"unicorn", unicorn.enc, nil, unicorn.model},
		{"anymatch", anymatch.enc, nil, anymatch.head},
	}
	out := make([]bool, len(task.Pairs))
	for _, tc := range cases {
		batch := func(head probHead) float64 {
			predictHead(task, tc.enc, tc.prep, head, out, nil) // warm the encoder
			return testing.AllocsPerRun(20, func() { predictHead(task, tc.enc, tc.prep, head, out, nil) })
		}
		total, base := batch(tc.head), batch(constHead{})
		t.Logf("%s: %v allocs per %d-pair batch, %v of them the head's", tc.name, total, len(task.Pairs), total-base)
		if total-base > ceiling {
			t.Errorf("%s head: %v allocs per %d-pair batch, want <= %d", tc.name, total-base, len(task.Pairs), ceiling)
		}
	}
}
