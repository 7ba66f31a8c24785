package mlcore

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSparseVecDot(t *testing.T) {
	var v SparseVec
	v.Add(0, 2)
	v.Add(3, -1)
	v.Add(0, 1) // duplicate index accumulates
	w := []float64{10, 0, 0, 5}
	if got := v.Dot(w); got != 2*10-1*5+1*10 {
		t.Fatalf("Dot = %v", got)
	}
	if len(v.Idx) != 3 {
		t.Fatalf("NNZ = %d", len(v.Idx))
	}
}

func TestSigmoidProperties(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("Sigmoid(0) != 0.5")
	}
	if err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := Sigmoid(x)
		// Bounded, monotone-consistent with sign, and symmetric.
		return s >= 0 && s <= 1 && math.Abs(s+Sigmoid(-x)-1) < 1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Stability at extremes.
	if Sigmoid(1000) != 1 || Sigmoid(-1000) != 0 {
		t.Fatal("sigmoid saturation wrong")
	}
}

func TestLogLoss(t *testing.T) {
	if got := LogLoss(1, 1); got > 1e-9 {
		t.Fatalf("perfect prediction loss = %v", got)
	}
	if got := LogLoss(0, 1); math.IsInf(got, 0) || got < 20 {
		t.Fatalf("confident wrong prediction loss = %v (should be large, finite)", got)
	}
	if math.Abs(LogLoss(0.5, 1)-math.Ln2) > 1e-12 {
		t.Fatal("LogLoss(0.5, 1) != ln 2")
	}
}

func TestHasherDeterministicAndInRange(t *testing.T) {
	h := NewHasher(1024)
	if h.width != 1024 {
		t.Fatal("Width mismatch")
	}
	if err := quick.Check(func(s string) bool {
		i1, i2 := h.IndexPrefixed("", s), h.IndexPrefixed("", s)
		sg := h.SignPrefixed("", s)
		return i1 == i2 && i1 >= 0 && i1 < 1024 && (sg == 1 || sg == -1)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHasherPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHasher(0) should panic")
		}
	}()
	NewHasher(0)
}

// syntheticLinearData builds a linearly separable problem: label = 1 iff
// feature 0 exceeds feature 1.
func syntheticLinearData(n int, rng *stats.RNG) []Example {
	out := make([]Example, n)
	for i := range out {
		a, b := rng.Float64(), rng.Float64()
		var x SparseVec
		x.Add(0, a)
		x.Add(1, b)
		x.Add(2, 1) // bias-ish
		y := 0.0
		if a > b {
			y = 1
		}
		out[i] = Example{X: x, Y: y}
	}
	return out
}

func TestLogRegLearnsLinearlySeparable(t *testing.T) {
	rng := stats.NewRNG(7)
	train := syntheticLinearData(800, rng.Split("train"))
	m := TrainLogReg(train, LogRegConfig{Dim: 3, Epochs: 20, LearnRate: 0.1, L2: 1e-6}, rng.Split("opt"))

	test := syntheticLinearData(300, rng.Split("test"))
	correct := 0
	for _, ex := range test {
		if (m.Prob(ex.X) >= 0.5) == (ex.Y >= 0.5) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.93 {
		t.Fatalf("logistic regression accuracy %.3f on separable data", acc)
	}
}

func TestLogRegEmptyTraining(t *testing.T) {
	m := TrainLogReg(nil, LogRegConfig{Dim: 4, Epochs: 3, LearnRate: 0.1}, stats.NewRNG(1))
	var x SparseVec
	x.Add(0, 1)
	if p := m.Prob(x); p != 0.5 {
		t.Fatalf("untrained model Prob = %v, want 0.5", p)
	}
}

func TestLogRegExampleWeights(t *testing.T) {
	// With overwhelming weight on positive duplicates of one point, the
	// model must predict positive there despite negative copies.
	rng := stats.NewRNG(9)
	var x SparseVec
	x.Add(0, 1)
	examples := []Example{
		{X: x, Y: 1, Weight: 10},
		{X: x, Y: 0, Weight: 1},
	}
	m := TrainLogReg(examples, LogRegConfig{Dim: 1, Epochs: 60, LearnRate: 0.2}, rng)
	if m.Prob(x) <= 0.5 {
		t.Fatalf("weighted majority ignored: p = %v", m.Prob(x))
	}
}

// xorData is not linearly separable; an MLP must solve it, a linear model
// cannot.
func xorData() []Example {
	var out []Example
	for _, c := range [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		var x SparseVec
		x.Add(0, c[0])
		x.Add(1, c[1])
		x.Add(2, 1)
		// Replicate each corner for stable batching.
		for k := 0; k < 25; k++ {
			out = append(out, Example{X: x, Y: c[2]})
		}
	}
	return out
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := stats.NewRNG(11)
	m := NewMLP(MLPConfig{Dim: 3, Hidden: 8, Epochs: 200, LearnRate: 0.05, L2: 0}, rng.Split("init"))
	m.Train(xorData(), rng.Split("train"))
	for _, c := range [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		var x SparseVec
		x.Add(0, c[0])
		x.Add(1, c[1])
		x.Add(2, 1)
		p := m.Prob(x)
		if (p >= 0.5) != (c[2] >= 0.5) {
			t.Fatalf("XOR corner (%v,%v) misclassified: p=%.3f", c[0], c[1], p)
		}
	}
}

func TestMLPDeterministicGivenSeed(t *testing.T) {
	build := func() *MLP {
		rng := stats.NewRNG(13)
		m := NewMLP(MLPConfig{Dim: 3, Hidden: 4, Epochs: 5, LearnRate: 0.05}, rng.Split("init"))
		m.Train(syntheticLinearData(100, rng.Split("data")), rng.Split("train"))
		return m
	}
	m1, m2 := build(), build()
	var x SparseVec
	x.Add(0, 0.7)
	x.Add(1, 0.2)
	x.Add(2, 1)
	if m1.Prob(x) != m2.Prob(x) {
		t.Fatal("same-seed MLP training not deterministic")
	}
}

func TestMLPEmptyTrainingIsNoop(t *testing.T) {
	rng := stats.NewRNG(17)
	m := NewMLP(MLPConfig{Dim: 2, Hidden: 3, Epochs: 5, LearnRate: 0.1}, rng)
	var x SparseVec
	x.Add(0, 1)
	before := m.Prob(x)
	m.Train(nil, rng)
	if m.Prob(x) != before {
		t.Fatal("training on empty data changed the model")
	}
}
