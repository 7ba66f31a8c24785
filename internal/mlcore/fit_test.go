package mlcore

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// numbered returns n examples whose labels are their indices, so a test
// can tell which example a callback saw.
func numbered(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		out[i].Y = float64(i)
	}
	return out
}

// TestFitHoldsOut pins the validation split: a tenth of the examples, at
// least 8 and at most half, none below 10. Each epoch steps every other
// example exactly once and scores every held-out one exactly once.
func TestFitHoldsOut(t *testing.T) {
	for _, c := range []struct{ n, val int }{
		{0, 0}, {1, 0}, {9, 0}, {10, 5}, {15, 7}, {16, 8}, {79, 8}, {80, 8}, {1000, 100},
	} {
		const epochs = 2
		stepped := make([]int, c.n)
		scored := make([]int, c.n)
		Fit(numbered(c.n), epochs, stats.NewRNG(1),
			func(ex Example) { stepped[int(ex.Y)]++ },
			func(ex Example) float64 { scored[int(ex.Y)]++; return 0 },
			func() {})
		nVal := 0
		for i := range stepped {
			switch {
			case stepped[i] == epochs && scored[i] == 0:
			case stepped[i] == 0 && scored[i] == epochs:
				nVal++
			default:
				t.Fatalf("n=%d: example %d stepped %d and scored %d times in %d epochs", c.n, i, stepped[i], scored[i], epochs)
			}
		}
		if nVal != c.val {
			t.Errorf("n=%d: held out %d examples, want %d", c.n, nVal, c.val)
		}
	}
}

// TestFitKeepsStrictlyBetterEpochs checks that keep runs exactly on the
// epochs whose summed validation loss is strictly below every earlier
// one's, and that Fit then reports a checkpoint to restore.
func TestFitKeepsStrictlyBetterEpochs(t *testing.T) {
	epochLoss := []float64{3, 3, 2, 5, 1, 1}
	const n, nVal = 20, 8
	epoch, scored := 0, 0
	var kept []int
	ok := Fit(numbered(n), len(epochLoss), stats.NewRNG(1),
		func(Example) {},
		func(Example) float64 {
			scored++
			if scored == nVal {
				scored = 0
				epoch++
				return epochLoss[epoch-1] // the whole epoch's loss, on its last example
			}
			return 0
		},
		func() { kept = append(kept, epoch-1) })
	if !ok {
		t.Fatal("Fit reported no checkpoint after keeping one")
	}
	if want := []int{0, 2, 4}; len(kept) != len(want) || kept[0] != want[0] || kept[1] != want[1] || kept[2] != want[2] {
		t.Fatalf("keep ran after epochs %v, want %v", kept, want)
	}

	// A diverged head scores NaN, which is lower than nothing: no epoch
	// is kept, and there is no checkpoint to restore.
	ok = Fit(numbered(n), 3, stats.NewRNG(1),
		func(Example) {},
		func(Example) float64 { return math.NaN() },
		func() { t.Fatal("keep ran on a NaN validation loss") })
	if ok {
		t.Fatal("Fit reported a checkpoint when no epoch was kept")
	}
}

// TestFitWithoutValidation checks that Fit reports no checkpoint, and
// never scores or keeps, when there is no validation set to select by.
func TestFitWithoutValidation(t *testing.T) {
	for _, n := range []int{0, 1, 9} {
		steps := 0
		ok := Fit(numbered(n), 3, stats.NewRNG(1),
			func(Example) { steps++ },
			func(Example) float64 { t.Fatalf("n=%d: loss called without a validation set", n); return 0 },
			func() { t.Fatalf("n=%d: keep called without a validation set", n) })
		if ok {
			t.Errorf("n=%d: Fit reported a checkpoint without a validation set", n)
		}
		if steps != 3*n {
			t.Errorf("n=%d: %d steps in 3 epochs, want %d", n, steps, 3*n)
		}
	}
}
