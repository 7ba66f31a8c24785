package stats

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almost(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic set is 32/7.
	if got := Variance(xs); !almost(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("variance of singleton should be 0")
	}
}

func TestMeanStdMatchesComponents(t *testing.T) {
	xs := []float64{1, 3, 5, 7}
	m, s := MeanStd(xs)
	if m != Mean(xs) || s != StdDev(xs) {
		t.Error("MeanStd disagrees with Mean/StdDev")
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Median(xs); !almost(got, 3.5, 1e-12) {
		t.Fatalf("Median = %v, want 3.5", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd Median = %v, want 3", got)
	}
}

func TestQuantileDur(t *testing.T) {
	if got := QuantileDur(nil, 0.5); got != 0 {
		t.Fatalf("empty QuantileDur = %v, want 0", got)
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Index ⌊q·(n−1)⌋, no interpolation: 4.5 → 4, 8.55 → 8, 8.91 → 8.
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 5}, {0.95, 9}, {0.99, 9}, {1, 10}} {
		if got := QuantileDur(sorted, c.q); got != c.want {
			t.Errorf("QuantileDur(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := Pearson(x, []float64{2, 4, 6, 8, 10}); !almost(got, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v", got)
	}
	if got := Pearson(x, []float64{10, 8, 6, 4, 2}); !almost(got, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v", got)
	}
	if got := Pearson(x, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("constant series correlation = %v, want 0", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 4, 9, 16, 25} // monotone but nonlinear
	if got := Spearman(x, y); !almost(got, 1, 1e-12) {
		t.Errorf("Spearman of monotone data = %v, want 1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties, fractional ranks are averaged; verify a hand-computed case.
	x := []float64{1, 2, 2, 4}
	y := []float64{10, 20, 20, 40}
	if got := Spearman(x, y); !almost(got, 1, 1e-12) {
		t.Errorf("tied identical-ranking Spearman = %v, want 1", got)
	}
}

func TestSpearmanBounds(t *testing.T) {
	rng := NewRNG(5)
	if err := quick.Check(func(seed uint32) bool {
		r := rng.Split("case" + strconv.Itoa(int(seed%1000)))
		n := 3 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		rho := Spearman(x, y)
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonSymmetry(t *testing.T) {
	rng := NewRNG(6)
	if err := quick.Check(func(seed uint32) bool {
		r := rng.Split("sym" + strconv.Itoa(int(seed%1000)))
		n := 3 + r.Intn(15)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = 2 * r.Norm()
			y[i] = 1 + 3*r.Norm()
		}
		return almost(Pearson(x, y), Pearson(y, x), 1e-12)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
