package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// Edge cases of the quantile estimator: empty histograms, everything in
// one bucket, everything clamped into the last bucket, and the exact
// boundary quantiles q=0 and q=1 (plus out-of-range q).

func TestQuantileEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	for _, h := range []*Histogram{
		r.Log2Histogram("empty_us", ""),
		r.LinearHistogram("empty_n", "", 8),
	} {
		for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
			if v := h.Quantile(q); v != 0 {
				t.Fatalf("%s: Quantile(%v) = %v on empty histogram, want 0", h.name, q, v)
			}
		}
	}
	if v := QuantileLog2(nil, 0.5); v != 0 {
		t.Fatalf("QuantileLog2(nil) = %v, want 0", v)
	}
	if v := QuantileLog2(make([]int64, log2Buckets), 0.99); v != 0 {
		t.Fatalf("QuantileLog2(zero counts) = %v, want 0", v)
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Log2Histogram("one_bucket_us", "")
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket [64, 128)
	}
	prev := 0.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		v := h.Quantile(q)
		if v < 64 || v >= 128 {
			t.Fatalf("Quantile(%v) = %v, want inside [64, 128)", q, v)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile at lower q (%v): not monotone", q, v, prev)
		}
		prev = v
	}
	// Midpoint convention: even q=1 stays strictly below the exclusive
	// upper bound, and q=0 strictly above the lower one.
	if v := h.Quantile(1); v >= 128 {
		t.Fatalf("Quantile(1) = %v, want < 128", v)
	}
	if v := h.Quantile(0); v <= 64 {
		t.Fatalf("Quantile(0) = %v, want > 64", v)
	}
}

func TestQuantileAllInLastBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Log2Histogram("huge_us", "")
	// 2^62 exceeds the 40-bucket layout; observations clamp into the
	// final bucket [2^38, 2^39).
	for i := 0; i < 10; i++ {
		h.Observe(1 << 62)
	}
	lo, hi := log2BucketBounds(log2Buckets - 1)
	for _, q := range []float64{0, 0.5, 1} {
		v := h.Quantile(q)
		if v < lo || v >= hi {
			t.Fatalf("Quantile(%v) = %v, want inside last bucket [%v, %v)", q, v, lo, hi)
		}
	}
	// Linear histograms clamp the same way but answer exactly.
	lh := r.LinearHistogram("huge_n", "", 8)
	lh.Observe(1000)
	if v := lh.Quantile(0.5); v != 8 {
		t.Fatalf("linear clamped Quantile(0.5) = %v, want 8", v)
	}
}

func TestQuantileExactBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.LinearHistogram("ranks_n", "", 16)
	for v := int64(1); v <= 10; v++ {
		h.Observe(v)
	}
	// Nearest-rank on exact single-value buckets: rank floor(q*10)+1.
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {-0.5, 1}, // clamp below
		{0.09, 1}, {0.1, 2}, {0.5, 6}, {0.89, 9}, {0.9, 10},
		{1, 10}, {1.5, 10}, // clamp above
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileLog2MatchesHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Log2Histogram("match_us", "")
	for _, v := range []int64{0, 1, 3, 7, 100, 100, 5000, 1 << 20} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if a, b := h.Quantile(q), QuantileLog2(counts, q); a != b {
			t.Fatalf("Quantile(%v) = %v but QuantileLog2 = %v", q, a, b)
		}
	}
	// BucketCountsInto into a reused buffer matches BucketCounts.
	buf := make([]int64, 0, h.NumBuckets())
	buf = h.BucketCountsInto(buf)
	if len(buf) != len(counts) {
		t.Fatalf("BucketCountsInto len = %d, want %d", len(buf), len(counts))
	}
	for i := range buf {
		if buf[i] != counts[i] {
			t.Fatalf("BucketCountsInto[%d] = %d, want %d", i, buf[i], counts[i])
		}
	}
}

// Zero-valued scalars must serialize an explicit value field, and
// histograms an explicit count/sum — consumers (emtool watch, dashboards)
// distinguish "zero" from "absent". Pins the MetricSnapshot pointer
// fields.
func TestSnapshotJSONZeroValuesExplicit(t *testing.T) {
	r := NewRegistry()
	r.Counter("zero_total", "")
	r.Gauge("zero_depth", "")
	r.Log2Histogram("zero_us", "")
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{
		`"name":"zero_total","type":"counter","value":0`,
		`"name":"zero_depth","type":"gauge","value":0`,
		`"name":"zero_us","type":"histogram","count":0,"sum":0`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("snapshot JSON missing %q:\n%s", want, s)
		}
	}
	// Scalars carry no histogram fields and histograms no scalar value.
	var snaps []MetricSnapshot
	if err := json.Unmarshal(b, &snaps); err != nil {
		t.Fatal(err)
	}
	if snaps[0].Count != nil || snaps[0].Sum != nil {
		t.Fatalf("counter snapshot has histogram fields: %+v", snaps[0])
	}
	if snaps[2].Value != nil {
		t.Fatalf("histogram snapshot has scalar value: %+v", snaps[2])
	}
	if snaps[2].Count == nil || *snaps[2].Count != 0 {
		t.Fatalf("histogram count not explicit zero: %+v", snaps[2])
	}
}
