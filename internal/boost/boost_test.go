package boost

import (
	"testing"

	"repro/internal/stats"
)

// thresholdData labels rows by whether feature 0 exceeds 0.5 — learnable
// with a single stump.
func thresholdData(n int, rng *stats.RNG) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		if xs[i][0] > 0.5 {
			ys[i] = 1
		}
	}
	return xs, ys
}

func TestBoosterLearnsThreshold(t *testing.T) {
	rng := stats.NewRNG(3)
	xs, ys := thresholdData(500, rng)
	b := Train(xs, ys, DefaultConfig())
	correct := 0
	tx, ty := thresholdData(200, rng.Split("test"))
	for i := range tx {
		if (b.Prob(tx[i]) >= 0.5) == (ty[i] >= 0.5) {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.97 {
		t.Fatalf("booster accuracy %.3f on single-threshold data", acc)
	}
}

func TestBoosterLearnsAdditiveNonlinear(t *testing.T) {
	// label = 1 iff x0 > 0.7 OR x1 > 0.7 — additive in the features, so a
	// stump ensemble can represent it, but it needs stumps on both
	// features (a single split cannot reach high accuracy).
	rng := stats.NewRNG(5)
	n := 1000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		if xs[i][0] > 0.7 || xs[i][1] > 0.7 {
			ys[i] = 1
		}
	}
	b := Train(xs, ys, Config{Rounds: 200, LearnRate: 0.3})
	correct := 0
	for i := range xs {
		if (b.Prob(xs[i]) >= 0.5) == (ys[i] >= 0.5) {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.90 {
		t.Fatalf("booster training accuracy %.3f on additive OR data", acc)
	}
	if len(b.stumps) < 2 {
		t.Fatalf("OR problem solved with %d stumps, expected several", len(b.stumps))
	}
}

func TestBoosterProbRange(t *testing.T) {
	rng := stats.NewRNG(7)
	xs, ys := thresholdData(200, rng)
	b := Train(xs, ys, DefaultConfig())
	for _, x := range xs {
		p := b.Prob(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestBoosterEmptyTraining(t *testing.T) {
	b := Train(nil, nil, DefaultConfig())
	if p := b.Prob([]float64{1, 2}); p < 0 || p > 1 {
		t.Fatalf("empty-trained booster prob = %v", p)
	}
	if len(b.stumps) != 0 {
		t.Fatal("empty training should fit no stumps")
	}
}

func TestBoosterConstantLabels(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}}
	ys := []float64{1, 1, 1}
	b := Train(xs, ys, DefaultConfig())
	for _, x := range xs {
		if b.Prob(x) < 0.9 {
			t.Fatalf("all-positive training should predict near 1, got %v", b.Prob(x))
		}
	}
}

func TestBoosterConfidentOnPureData(t *testing.T) {
	// Perfectly separated single-feature data: the ensemble must become
	// highly confident and never exceed the configured round budget.
	xs := [][]float64{{0}, {0.1}, {0.9}, {1}}
	ys := []float64{0, 0, 1, 1}
	b := Train(xs, ys, Config{Rounds: 200, LearnRate: 0.5})
	if len(b.stumps) > 200 {
		t.Fatalf("round budget exceeded: %d", len(b.stumps))
	}
	if b.Prob([]float64{0.05}) > 0.05 || b.Prob([]float64{0.95}) < 0.95 {
		t.Fatalf("not confident on pure data: %v / %v",
			b.Prob([]float64{0.05}), b.Prob([]float64{0.95}))
	}
}
