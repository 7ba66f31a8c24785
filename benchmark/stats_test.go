package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// Values checked against Python: statistics.quantiles(xs, n=4) gives
// [2.75, 5.5, 8.25] for 1..10 and [1.5, 3.0, 4.5] for 1..5.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	five := []float64{1, 2, 3, 4, 5}
	if got, want := quartileSpread(five), (4.5-1.5)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..5) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
}
