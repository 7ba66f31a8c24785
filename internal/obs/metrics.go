package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// log2Buckets is the bucket count of log2 histograms: bucket k counts
// values v with bits.Len64(v) == k, i.e. v in [2^(k-1), 2^k). 40 buckets
// span 0 to ~2^39 — sub-microsecond to ~6 days when observing
// microseconds.
const log2Buckets = 40

// Counter is a monotonically increasing metric. A nil *Counter is a valid
// disabled counter: Add/Inc return immediately.
type Counter struct {
	v          atomic.Int64
	name, help string
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a valid
// disabled gauge.
type Gauge struct {
	v          atomic.Int64
	name, help string
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution with single-atomic-add
// observation. Two bucket layouts exist: log2 (bucket k counts values in
// [2^(k-1), 2^k), for latencies spanning orders of magnitude) and linear
// unit-width (bucket k counts values equal to k, clamped to the last
// bucket — exact counts for small discrete quantities like batch sizes).
// A nil *Histogram is a valid disabled histogram.
type Histogram struct {
	buckets    []atomic.Int64
	sum        atomic.Int64
	linear     bool
	name, help string
}

// Observe records one value (negative values count as 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	var k int
	if h.linear {
		k = int(v)
	} else {
		k = bits.Len64(uint64(v))
	}
	if k >= len(h.buckets) {
		k = len(h.buckets) - 1
	}
	h.buckets[k].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in microseconds — the unit every
// *_us histogram in the repository uses.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Microseconds())
}

// ObserveSince records the microseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Microseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// BucketCounts returns a snapshot of the per-bucket counts (not
// cumulative). For linear histograms index k is the count of value k.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	return h.BucketCountsInto(make([]int64, 0, len(h.buckets)))
}

// BucketCountsInto appends a snapshot of the per-bucket counts to dst
// and returns it, allocating only when dst lacks capacity. Periodic
// samplers (the SLO engine) call this every tick with a reused buffer.
func (h *Histogram) BucketCountsInto(dst []int64) []int64 {
	if h == nil {
		return dst
	}
	for i := range h.buckets {
		dst = append(dst, h.buckets[i].Load())
	}
	return dst
}

// NumBuckets returns the bucket count of the histogram's layout (0 for
// a nil histogram), sizing reusable BucketCountsInto buffers.
func (h *Histogram) NumBuckets() int {
	if h == nil {
		return 0
	}
	return len(h.buckets)
}

// Quantile estimates the value at quantile q in [0, 1] using the
// nearest-rank definition (rank floor(q*n)+1, clamped to n). Linear
// histograms answer exactly (buckets hold single values). Log2
// histograms place the rank inside its bucket by linear interpolation
// between the bucket bounds, which tightens the previous upper-bound
// estimate from a 2x worst case to half a bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantileOf(h.BucketCounts(), q, h.linear)
}

// QuantileLog2 estimates quantile q over a raw log2 bucket-count slice,
// using the same nearest-rank + interpolation rules as
// Histogram.Quantile. It exists for consumers that window a histogram
// by differencing two BucketCounts snapshots (the SLO engine) and need
// quantiles of the delta distribution. Allocation-free.
func QuantileLog2(counts []int64, q float64) float64 {
	return quantileOf(counts, q, false)
}

func quantileOf(counts []int64, q float64, linear bool) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total)) + 1
	if rank > total {
		rank = total
	}
	var seen int64
	for k, c := range counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			if linear {
				return float64(k)
			}
			lo, hi := log2BucketBounds(k)
			// Midpoint convention: the i-th of c observations in a bucket
			// sits at fraction (i - 0.5)/c, so a full bucket never reports
			// its exclusive upper bound.
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	return 0 // unreachable: total > 0 places the rank in some bucket
}

// log2BucketBounds returns the value range [lo, hi) of log2 bucket k.
func log2BucketBounds(k int) (lo, hi float64) {
	if k == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (k - 1)), float64(uint64(1) << k)
}

// upperBound returns the inclusive upper bound of bucket k, used as the
// Prometheus `le` label.
func (h *Histogram) upperBound(k int) int64 {
	if h.linear {
		return int64(k)
	}
	if k == 0 {
		return 0
	}
	return int64(uint64(1)<<k) - 1
}

// Label is one constant name="value" pair attached to every series of a
// Registry.
type Label struct{ Key, Value string }

// gaugeFunc is a read-at-exposition metric backed by a callback.
type gaugeFunc struct {
	name, help, typ string // typ: "gauge" or "counter"
	f               func() float64
}

// Registry is a named collection of metrics with deterministic
// (registration-order) exposition. Registration takes a lock; recording
// into registered handles is lock-free. A nil *Registry hands out nil
// handles, so a whole subsystem can be instrumented-but-disabled by
// passing a nil registry.
type Registry struct {
	mu     sync.Mutex
	labels []Label
	order  []any // *Counter | *Gauge | *Histogram | gaugeFunc, in registration order
	byName map[string]any
}

// NewRegistry returns an empty registry whose series all carry the given
// constant labels.
func NewRegistry(labels ...Label) *Registry {
	return &Registry{labels: labels, byName: make(map[string]any)}
}

// register stores m under name, or returns the existing metric of the
// same name. Re-registering a name as a different kind panics: that is a
// programming error, and silently returning a mismatched handle would
// corrupt whoever holds it.
func (r *Registry) register(name string, m any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		if fmt.Sprintf("%T", prev) != fmt.Sprintf("%T", m) {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return prev
	}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid disabled counter) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, &Counter{name: name, help: help}).(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, &Gauge{name: name, help: help}).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from f at exposition
// time. f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	r.register(name, gaugeFunc{name: name, help: help, typ: "gauge", f: f})
}

// CounterFunc registers a monotonic metric whose value is read from f at
// exposition time (e.g. a cache's internal hit counter).
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	r.register(name, gaugeFunc{name: name, help: help, typ: "counter", f: f})
}

// Log2Histogram returns the named log2-bucket histogram, creating it on
// first use.
func (r *Registry) Log2Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, &Histogram{
		name: name, help: help, buckets: make([]atomic.Int64, log2Buckets),
	}).(*Histogram)
}

// LinearHistogram returns the named unit-width histogram over [0, max]
// (values above max clamp into the last bucket), creating it on first
// use.
func (r *Registry) LinearHistogram(name, help string, max int) *Histogram {
	if r == nil {
		return nil
	}
	if max < 1 {
		max = 1
	}
	return r.register(name, &Histogram{
		name: name, help: help, linear: true, buckets: make([]atomic.Int64, max+1),
	}).(*Histogram)
}

// metrics snapshots the ordered metric list under the lock, so exposition
// never holds the lock while formatting.
func (r *Registry) metrics() (labels []Label, order []any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.labels, append([]any(nil), r.order...)
}
