package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Split("alpha")
	b := root.Split("beta")
	aa := NewRNG(7).Split("alpha")
	// Same label: same stream.
	for i := 0; i < 50; i++ {
		if a.Uint64() != aa.Uint64() {
			t.Fatalf("same-label splits diverged at draw %d", i)
		}
	}
	// Different labels: different streams.
	c := NewRNG(7).Split("alpha")
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently labeled splits matched on %d of 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	sum := 0.0
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		buckets[int(f*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %.4f far from 0.5", mean)
	}
	for b, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d count %d far from uniform", b, c)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(17)
	if err := quick.Check(func(n uint8) bool {
		bound := int(n%100) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(19)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	for _, n := range []int{1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := NewRNG(29)
	s := r.Sample(100, 10)
	if len(s) != 10 {
		t.Fatalf("Sample(100,10) length %d", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid sample %v", s)
		}
		seen[v] = true
	}
	// k >= n returns a full permutation.
	if got := r.Sample(5, 10); len(got) != 5 {
		t.Fatalf("Sample(5,10) length %d, want 5", len(got))
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := NewRNG(31)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weighted choice ordering violated: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.03 {
		t.Fatalf("weight-7 option frequency %.3f far from 0.7", frac)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(37)
	hits := 0
	for i := 0; i < 50000; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / 50000
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("Bool(0.25) frequency %.3f", frac)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(41)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}
