package matchers

import (
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/record"
	"repro/internal/stats"
)

// TestSampleTransferMatchesPool holds sampleTransfer to sampling the
// flattened pool for every LODO target under seeds 1-3 at Ditto's cap
// (Unicorn's takes the same path), and once per target at a size above
// the pool: the same pairs in the same order, with the generator left in
// the same state.
func TestSampleTransferMatchesPool(t *testing.T) {
	all := datasets.GenerateAll(42)
	for _, target := range datasets.Names() {
		var transfer []*record.Dataset
		for _, d := range all {
			if d.Name != target {
				transfer = append(transfer, d)
			}
		}
		check := func(seed uint64, n int) {
			ra, rb := stats.NewRNG(seed), stats.NewRNG(seed)
			want := samplePairs(collectTransfer(transfer), n, ra)
			got := sampleTransfer(transfer, n, rb)
			if !slices.EqualFunc(got, want, sameTransferPair) {
				t.Fatalf("%s seed %d n %d: sampleTransfer differs from sampling the pool (%d vs %d pairs)", target, seed, n, len(got), len(want))
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("%s seed %d n %d: generator states differ after sampling", target, seed, n)
			}
		}
		for seed := uint64(1); seed <= 3; seed++ {
			check(seed, NewDitto().TrainCap)
		}
		check(1, 1<<20)
	}
}

func sameTransferPair(a, b transferPair) bool {
	return a.dataset == b.dataset && a.pair.Match == b.pair.Match &&
		a.pair.Left.ID == b.pair.Left.ID && slices.Equal(a.pair.Left.Values, b.pair.Left.Values) &&
		a.pair.Right.ID == b.pair.Right.ID && slices.Equal(a.pair.Right.Values, b.pair.Right.Values)
}
