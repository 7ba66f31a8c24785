package slo

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Tick, Snapshot, Worst and metric exposition hammered concurrently
// while the underlying counters advance — run under -race via the
// Makefile race list.
func TestEngineConcurrentTickAndRead(t *testing.T) {
	vc := &clock.Virtual{}
	e := NewEngine(Config{Clock: vc, Resolution: time.Millisecond})
	reg := obs.NewRegistry()
	h := reg.Log2Histogram("lat_us", "")
	var bad, total atomic.Int64
	if err := e.AddLatency(mustSpec(t, "p99<=1ms@100ms/20ms"), h); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRatio(mustSpec(t, "shed<=10%@100ms/20ms"),
		func() float64 { return float64(bad.Load()) },
		func() float64 { return float64(total.Load()) }); err != nil {
		t.Fatal(err)
	}
	var transitions atomic.Int64
	e.OnTransition(func(Transition) { transitions.Add(1) })
	e.RegisterMetrics(reg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	worker := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	worker(func() { vc.Sleep(time.Millisecond); e.Tick() })
	worker(func() { vc.Sleep(time.Millisecond); e.Tick() })
	worker(func() { _ = e.Snapshot(); _ = e.Worst() })
	worker(func() {
		var sb nullWriter
		_ = reg.WritePrometheus(sb)
	})
	worker(func() {
		h.Observe(100)
		bad.Add(1)
		total.Add(5)
	})
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if e.Ticks() == 0 {
		t.Fatal("no ticks ran")
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }
