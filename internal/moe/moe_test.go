package moe

import (
	"math"
	"testing"

	"repro/internal/mlcore"
	"repro/internal/stats"
)

func linearData(n int, rng *stats.RNG) []mlcore.Example {
	out := make([]mlcore.Example, n)
	for i := range out {
		a, b := rng.Float64(), rng.Float64()
		var x mlcore.SparseVec
		x.Add(0, a)
		x.Add(1, b)
		x.Add(2, 1)
		y := 0.0
		if a > b {
			y = 1
		}
		out[i] = mlcore.Example{X: x, Y: y}
	}
	return out
}

func TestMoELearnsSeparableData(t *testing.T) {
	rng := stats.NewRNG(21)
	cfg := Config{Dim: 3, Experts: 3, Hidden: 8, Epochs: 25, LearnRate: 0.05, L2: 0}
	m := New(cfg, rng.Split("init"))
	m.Train(linearData(600, rng.Split("train")), rng.Split("opt"))

	test := linearData(200, rng.Split("test"))
	correct := 0
	for _, ex := range test {
		if (m.Prob(ex.X) >= 0.5) == (ex.Y >= 0.5) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.90 {
		t.Fatalf("MoE accuracy %.3f on separable data", acc)
	}
}

func TestGateProbsSumToOne(t *testing.T) {
	rng := stats.NewRNG(23)
	m := New(DefaultConfig(8), rng)
	var x mlcore.SparseVec
	x.Add(0, 0.5)
	x.Add(3, 1.0)
	st := m.newState()
	m.forward(x, st)
	probs := st.gateProbs
	sum := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("gate probability out of range: %v", probs)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("gate probabilities sum to %v", sum)
	}
	if len(probs) != DefaultConfig(8).Experts {
		t.Fatalf("expected %d experts, got %d", DefaultConfig(8).Experts, len(probs))
	}
}

func TestMoEDeterministic(t *testing.T) {
	build := func() float64 {
		rng := stats.NewRNG(29)
		cfg := Config{Dim: 3, Experts: 2, Hidden: 4, Epochs: 3, LearnRate: 0.05}
		m := New(cfg, rng.Split("init"))
		m.Train(linearData(100, rng.Split("data")), rng.Split("train"))
		var x mlcore.SparseVec
		x.Add(0, 0.8)
		x.Add(1, 0.3)
		x.Add(2, 1)
		return m.Prob(x)
	}
	if build() != build() {
		t.Fatal("MoE training not deterministic for a fixed seed")
	}
}

func TestMoEEmptyTraining(t *testing.T) {
	rng := stats.NewRNG(31)
	m := New(DefaultConfig(4), rng)
	var x mlcore.SparseVec
	x.Add(0, 1)
	before := m.Prob(x)
	m.Train(nil, rng)
	if m.Prob(x) != before {
		t.Fatal("empty training changed the model")
	}
	if before < 0 || before > 1 {
		t.Fatalf("untrained probability out of range: %v", before)
	}
}

func TestMoEMultiTaskSpecialisation(t *testing.T) {
	// Two sub-tasks with opposite decision rules, distinguished by a task
	// indicator feature. A single linear model cannot satisfy both; the
	// mixture-of-experts must, by routing on the indicator.
	rng := stats.NewRNG(37)
	var data []mlcore.Example
	makeTask := func(indicatorIdx int, invert bool, n int) {
		for i := 0; i < n; i++ {
			a := rng.Float64()
			var x mlcore.SparseVec
			x.Add(0, a)
			x.Add(indicatorIdx, 1)
			x.Add(4, 1) // shared bias feature
			y := 0.0
			if (a > 0.5) != invert {
				y = 1
			}
			data = append(data, mlcore.Example{X: x, Y: y})
		}
	}
	makeTask(1, false, 400) // task A: positive when a > 0.5
	makeTask(2, true, 400)  // task B: positive when a <= 0.5
	cfg := Config{Dim: 5, Experts: 4, Hidden: 8, Epochs: 40, LearnRate: 0.05}
	m := New(cfg, rng.Split("init"))
	m.Train(data, rng.Split("train"))

	correct := 0
	for _, ex := range data {
		if (m.Prob(ex.X) >= 0.5) == (ex.Y >= 0.5) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(data)); acc < 0.85 {
		t.Fatalf("MoE accuracy %.3f on opposing sub-tasks (routing failed?)", acc)
	}
}
