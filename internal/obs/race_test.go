package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// The concurrency gate of the registry and the span recorder: hammer
// every primitive from many goroutines and assert exact totals. Run
// under -race via `make verify-parallel`.

func TestConcurrentCountersExactTotals(t *testing.T) {
	const goroutines, perG = 16, 10_000
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	g := r.Gauge("delta", "")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Set(1)
				g.Set(0)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestConcurrentHistogramExactTotals(t *testing.T) {
	const goroutines, perG = 16, 10_000
	r := NewRegistry()
	h := r.Log2Histogram("lat_us", "")
	lin := r.LinearHistogram("batch", "", 32)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(int64(i*perG+j) % 1000)
				lin.Observe(int64(j % 33))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("log2 count = %d, want %d", got, goroutines*perG)
	}
	if got := lin.Count(); got != goroutines*perG {
		t.Fatalf("linear count = %d, want %d", got, goroutines*perG)
	}
	// Concurrent readers while writers are still active must not race.
	var wg2 sync.WaitGroup
	stop := make(chan struct{})
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Quantile(0.95)
				_ = r.Snapshot()
			}
		}
	}()
	for j := 0; j < 1000; j++ {
		h.Observe(int64(j))
	}
	close(stop)
	wg2.Wait()
}

func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	handles := make([]*Counter, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Everyone registers the same name plus a private one.
			handles[i] = r.Counter("shared_total", "")
			r.Counter(fmt.Sprintf("private_%d_total", i), "").Inc()
			handles[i].Inc()
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if handles[i] != handles[0] {
			t.Fatal("concurrent registration split the shared counter")
		}
	}
	if got := handles[0].Load(); got != goroutines {
		t.Fatalf("shared counter = %d, want %d", got, goroutines)
	}
	if got := len(r.Snapshot()); got != goroutines+1 {
		t.Fatalf("registry holds %d metrics, want %d", got, goroutines+1)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	const goroutines, perG = 16, 2_000
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				cctx, cell := Start(ctx, "cell")
				_, child := Start(cctx, "predict")
				child.SetInt("pairs", 1)
				child.End()
				st := StartStages(cctx)
				st.Enter("serialize")
				st.Enter("classify")
				st.End()
				cell.End()
			}
		}()
	}
	wg.Wait()
	recs := tr.Records()
	want := goroutines * perG * 4 // cell + predict + 2 stage spans
	if len(recs) != want {
		t.Fatalf("recorded %d spans, want %d", len(recs), want)
	}
	if err := CheckNesting(recs); err != nil {
		t.Fatal(err)
	}
}
