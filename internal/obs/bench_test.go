package obs

import (
	"context"
	"testing"
)

// Disabled-path benchmarks: nil handles must cost a branch, not an
// allocation. These are the numbers behind the "instrumentation is free
// when off" contract.

func BenchmarkObsDisabledCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsDisabledHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkObsDisabledSpanStart(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, span := Start(ctx, "bench")
		span.SetInt("i", int64(i))
		span.End()
	}
}

// Enabled-path benchmarks price what recording actually costs.

func BenchmarkObsEnabledCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsEnabledHistogramObserve(b *testing.B) {
	h := NewRegistry().Log2Histogram("bench_us", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkObsEnabledSpanRecord(b *testing.B) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, span := Start(ctx, "bench")
		span.SetInt("i", int64(i))
		span.End()
	}
}
