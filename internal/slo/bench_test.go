package slo

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

func benchEngine(b *testing.B) (*Engine, *clock.Virtual, *obs.Histogram) {
	b.Helper()
	vc := &clock.Virtual{}
	e := NewEngine(Config{Clock: vc, Resolution: time.Second})
	reg := obs.NewRegistry()
	h := reg.Log2Histogram("lat_us", "")
	var bad, total atomic.Int64
	if err := e.AddLatency(mustSpecB(b, "p99<=5ms@1m/10s"), h); err != nil {
		b.Fatal(err)
	}
	if err := e.AddRatio(mustSpecB(b, "shed<=1%@1m/10s"),
		func() float64 { return float64(bad.Load()) },
		func() float64 { return float64(total.Load()) }); err != nil {
		b.Fatal(err)
	}
	if err := e.AddCost(mustSpecB(b, "cost<=0.25@1m/10s"),
		func() float64 { return 0.01 },
		func() float64 { return float64(total.Load()) }); err != nil {
		b.Fatal(err)
	}
	total.Store(1000)
	return e, vc, h
}

func mustSpecB(b *testing.B, s string) Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// BenchmarkSLOTick is one evaluation pass over three bound objectives
// (latency + ratio + cost) — what the serving tick loop pays each
// resolution interval. Steady state must not allocate.
func BenchmarkSLOTick(b *testing.B) {
	e, vc, h := benchEngine(b)
	for i := 0; i < 100; i++ {
		h.Observe(int64(100 + i))
	}
	// Warm the ring and scratch past their growth phase.
	for i := 0; i < 200; i++ {
		vc.Sleep(time.Second)
		e.Tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vc.Sleep(time.Second)
		e.Tick()
	}
}

// BenchmarkSLODisabled is the nil-engine path serving pays per tick
// opportunity when no SLOs are configured. TestDisabledEngineZeroAlloc
// gates it at 0 allocs/op.
func BenchmarkSLODisabled(b *testing.B) {
	var e *Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Tick() != nil || e.Worst() != OK {
			b.Fatal("nil engine not disabled")
		}
	}
}
