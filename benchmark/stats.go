package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest value with at least q of the sample at
// or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles taken the way
// Python's statistics.quantiles(xs, n=4) takes them (exclusive method) —
// the number the acceptance check computes over repeated runs.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := stats.Median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(exclusiveQuantile(s, 3)-exclusiveQuantile(s, 1)) / math.Abs(m)
}

// exclusiveQuantile returns the k-th of the three quartile cut points of
// an ascending slice with at least two values.
func exclusiveQuantile(sorted []float64, k int) float64 {
	n := len(sorted)
	j := k * (n + 1) / 4
	delta := k*(n+1) - j*4
	if j < 1 {
		j, delta = 1, 0
	}
	if j > n-1 {
		j, delta = n-1, 4
	}
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// quietQuantile is where loadgen.quiet_throughput_pairs_s reads a
// request's latency over its repetitions. Interference from the shared
// host only ever adds time, so the fastest few repetitions are what the
// program costs when the host leaves it alone. The figure is a noise
// gauge: no pass runs at that rate, and a cost that fewer than 98 % of
// the repetitions pay (a GC cycle, a hedge timer) is invisible to it,
// which is why no end-to-end metric is read this way.
const quietQuantile = 0.02

// quiet returns, for every position of a repeated cycle, the quiet
// quantile of that position's samples: samples[i] belongs to position
// i % cycle.
func quiet(samples []int64, cycle int) []float64 {
	per := make([][]float64, cycle)
	for i, v := range samples {
		per[i%cycle] = append(per[i%cycle], float64(v))
	}
	out := make([]float64, cycle)
	for i, vs := range per {
		sort.Float64s(vs)
		out[i] = percentile(vs, quietQuantile)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func nsToFloats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
