package gmm

import (
	"testing"

	"repro/internal/stats"
)

// twoClusterData draws similarity-style vectors from two diagonal
// Gaussians: a low cluster (non-matches) and a high cluster (matches).
func twoClusterData(nLow, nHigh, dim int, rng *stats.RNG) (xs [][]float64, labels []bool) {
	for i := 0; i < nLow; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = stats.Clamp(0.25+0.08*rng.Norm(), 0, 1)
		}
		xs = append(xs, v)
		labels = append(labels, false)
	}
	for i := 0; i < nHigh; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = stats.Clamp(0.85+0.08*rng.Norm(), 0, 1)
		}
		xs = append(xs, v)
		labels = append(labels, true)
	}
	return xs, labels
}

func TestFitSeparatesClusters(t *testing.T) {
	rng := stats.NewRNG(2)
	xs, labels := twoClusterData(400, 60, 4, rng)
	m := Fit(xs, DefaultConfig(), rng.Split("fit"))
	correct := 0
	for i, x := range xs {
		if (m.MatchProb(x) >= 0.5) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.98 {
		t.Fatalf("mixture accuracy %.3f on well-separated clusters", acc)
	}
}

func TestFitPriorReflectsSkew(t *testing.T) {
	rng := stats.NewRNG(3)
	xs, _ := twoClusterData(900, 100, 3, rng)
	m := Fit(xs, DefaultConfig(), rng.Split("fit"))
	if m.prior < 0.05 || m.prior > 0.2 {
		t.Fatalf("match prior %.3f, want near the true 0.1", m.prior)
	}
}

func TestFitPriorCapped(t *testing.T) {
	rng := stats.NewRNG(5)
	// Majority-high data would push the prior above the cap.
	xs, _ := twoClusterData(100, 900, 3, rng)
	cfg := DefaultConfig()
	m := Fit(xs, cfg, rng.Split("fit"))
	if m.prior > cfg.MaxPrior+1e-9 {
		t.Fatalf("prior %.3f exceeds cap %.3f", m.prior, cfg.MaxPrior)
	}
}

func TestMatchComponentIsHighCluster(t *testing.T) {
	rng := stats.NewRNG(7)
	xs, _ := twoClusterData(300, 100, 2, rng)
	m := Fit(xs, DefaultConfig(), rng.Split("fit"))
	high := []float64{0.9, 0.9}
	low := []float64{0.2, 0.2}
	if m.MatchProb(high) <= m.MatchProb(low) {
		t.Fatal("match component not aligned with high-similarity cluster")
	}
}

func TestFitDegenerateInputs(t *testing.T) {
	rng := stats.NewRNG(9)
	// Too few points: uninformative mixture, still functional.
	m := Fit([][]float64{{0.5}, {0.6}}, DefaultConfig(), rng)
	if p := m.MatchProb([]float64{0.5}); p < 0 || p > 1 {
		t.Fatalf("degenerate mixture prob = %v", p)
	}
	// Identical points: no NaNs.
	same := make([][]float64, 50)
	for i := range same {
		same[i] = []float64{0.4, 0.4}
	}
	m = Fit(same, DefaultConfig(), rng.Split("same"))
	if p := m.MatchProb([]float64{0.4, 0.4}); p != p || p < 0 || p > 1 {
		t.Fatalf("identical-point mixture prob = %v", p)
	}
}

func TestFitDeterministic(t *testing.T) {
	build := func() float64 {
		rng := stats.NewRNG(11)
		xs, _ := twoClusterData(200, 40, 3, rng)
		m := Fit(xs, DefaultConfig(), rng.Split("fit"))
		return m.MatchProb([]float64{0.7, 0.7, 0.7})
	}
	if build() != build() {
		t.Fatal("mixture fitting not deterministic for a fixed seed")
	}
}

func TestMatchProbRange(t *testing.T) {
	rng := stats.NewRNG(13)
	xs, _ := twoClusterData(200, 50, 3, rng)
	m := Fit(xs, DefaultConfig(), rng.Split("fit"))
	for _, x := range xs {
		p := m.MatchProb(x)
		if p < 0 || p > 1 || p != p {
			t.Fatalf("posterior out of range: %v", p)
		}
	}
}
