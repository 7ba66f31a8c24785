package obs

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(5)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	// Get-or-create returns the same handle.
	if r.Counter("requests_total", "requests") != c {
		t.Fatal("re-registering a counter returned a different handle")
	}
}

func TestNilHandlesAreDisabled(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
	)
	c.Add(1)
	c.Inc()
	g.Set(3)
	h.Observe(9)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if r.Counter("x", "") != nil || r.Log2Histogram("y", "") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "")
	r.Gauge("x", "")
}

func TestLog2HistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Log2Histogram("lat_us", "latency")
	// 100 observations of 100µs: all land in bucket [64, 128).
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v < 64 || v >= 128 {
			t.Fatalf("q%.0f = %v, want within bucket [64, 128)", q*100, v)
		}
	}
	if h.Count() != 100 || h.Sum() != 10000 {
		t.Fatalf("count/sum = %d/%d, want 100/10000", h.Count(), h.Sum())
	}
	if m := h.Mean(); m != 100 {
		t.Fatalf("mean = %v, want 100", m)
	}
	// Interpolation separates ranks within a spread distribution: p99 of
	// 99 small + 1 huge observation must land in the huge bucket.
	h2 := r.Log2Histogram("lat2_us", "")
	for i := 0; i < 99; i++ {
		h2.Observe(1)
	}
	h2.Observe(1 << 20)
	if p99 := h2.Quantile(0.99); p99 < 1<<19 {
		t.Fatalf("p99 = %v, want in the 2^20 bucket", p99)
	}
	if p50 := h2.Quantile(0.5); p50 >= 2 {
		t.Fatalf("p50 = %v, want in the [1,2) bucket", p50)
	}
}

func TestLinearHistogramExactCounts(t *testing.T) {
	r := NewRegistry()
	h := r.LinearHistogram("batch_pairs", "batch sizes", 8)
	for i := 0; i < 3; i++ {
		h.Observe(2)
	}
	h.Observe(5)
	h.Observe(100) // clamps into the last bucket
	counts := h.BucketCounts()
	if counts[2] != 3 || counts[5] != 1 || counts[8] != 1 {
		t.Fatalf("bucket counts = %v", counts)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %v, want exactly 2", q)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry(Label{Key: "matcher", Value: "StringSim"})
	r.Counter("emserve_requests_total", "admitted requests").Add(42)
	r.GaugeFunc("emserve_queue_depth", "queued requests", func() float64 { return 3 })
	r.CounterFunc("emserve_cost_usd_total", "dollars", func() float64 { return 1.25 })
	h := r.Log2Histogram("emserve_latency_us", "request latency")
	h.Observe(3)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`# TYPE emserve_requests_total counter`,
		`emserve_requests_total{matcher="StringSim"} 42`,
		`emserve_queue_depth{matcher="StringSim"} 3`,
		`# TYPE emserve_cost_usd_total counter`,
		`emserve_cost_usd_total{matcher="StringSim"} 1.25`,
		`# TYPE emserve_latency_us histogram`,
		`emserve_latency_us_bucket{matcher="StringSim",le="3"} 1`,
		`emserve_latency_us_bucket{matcher="StringSim",le="127"} 2`,
		`emserve_latency_us_bucket{matcher="StringSim",le="+Inf"} 2`,
		`emserve_latency_us_sum{matcher="StringSim"} 103`,
		`emserve_latency_us_count{matcher="StringSim"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	h := r.Log2Histogram("b_us", "")
	h.Observe(10)
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Name != "a_total" || snaps[0].Value == nil || *snaps[0].Value != 7 || snaps[0].Type != "counter" {
		t.Fatalf("counter snapshot = %+v", snaps[0])
	}
	if snaps[1].Count == nil || *snaps[1].Count != 1 || snaps[1].Sum == nil || *snaps[1].Sum != 10 || len(snaps[1].Buckets) != 1 {
		t.Fatalf("histogram snapshot = %+v", snaps[1])
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"a_total"`) {
		t.Fatalf("JSON missing metric name: %s", b.String())
	}
}

func TestPublishExpvarRebinds(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("x_total", "").Add(1)
	PublishExpvar("obs_test_rebind", r1)
	r2 := NewRegistry()
	r2.Counter("x_total", "").Add(2)
	// Must not panic on duplicate publish, and must read the new registry.
	PublishExpvar("obs_test_rebind", r2)
	expvarMu.Lock()
	got := expvarRegistries["obs_test_rebind"]
	expvarMu.Unlock()
	if got != r2 {
		t.Fatal("expvar name not rebound to the newest registry")
	}
}
