package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// This file is the registry's read side: Prometheus text exposition,
// JSON snapshots, an http.Handler, and expvar publishing. All of it
// renders from atomic loads; nothing here blocks the hot recording path.

// MetricSnapshot is one metric's point-in-time JSON view. Value is set
// (non-nil) exactly for scalar kinds (counter/gauge), Count and Sum
// exactly for histograms — as pointers, so a zero-valued counter still
// serializes an explicit "value": 0 instead of omitting the field
// (consumers must be able to tell "zero" from "absent").
type MetricSnapshot struct {
	Name string `json:"name"`
	Type string `json:"type"` // counter | gauge | histogram
	Help string `json:"help,omitempty"`
	// Value is the scalar value of counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Histogram fields.
	Count   *int64        `json:"count,omitempty"`
	Sum     *int64        `json:"sum,omitempty"`
	Mean    float64       `json:"mean,omitempty"`
	P50     float64       `json:"p50,omitempty"`
	P95     float64       `json:"p95,omitempty"`
	P99     float64       `json:"p99,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: the inclusive upper
// bound of the bucket and the (non-cumulative) number of observations in
// it.
type BucketCount struct {
	LE int64 `json:"le"`
	N  int64 `json:"n"`
}

// Snapshot returns every registered metric in registration order. Safe
// for concurrent use with recording; a nil registry snapshots empty.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	_, order := r.metrics()
	out := make([]MetricSnapshot, 0, len(order))
	scalar := func(v float64) *float64 { return &v }
	count := func(v int64) *int64 { return &v }
	for _, m := range order {
		switch m := m.(type) {
		case *Counter:
			out = append(out, MetricSnapshot{Name: m.name, Type: "counter", Help: m.help, Value: scalar(float64(m.Load()))})
		case *Gauge:
			out = append(out, MetricSnapshot{Name: m.name, Type: "gauge", Help: m.help, Value: scalar(float64(m.Load()))})
		case gaugeFunc:
			out = append(out, MetricSnapshot{Name: m.name, Type: m.typ, Help: m.help, Value: scalar(m.f())})
		case *Histogram:
			s := MetricSnapshot{
				Name: m.name, Type: "histogram", Help: m.help,
				Count: count(m.Count()), Sum: count(m.Sum()), Mean: m.Mean(),
				P50: m.Quantile(0.50), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
			}
			for k, n := range m.BucketCounts() {
				if n != 0 {
					s.Buckets = append(s.Buckets, BucketCount{LE: m.upperBound(k), N: n})
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, constant labels on every
// series, cumulative le-labeled buckets plus _sum and _count for
// histograms. Buckets past the last non-empty one are elided (except the
// mandatory +Inf).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	labels, order := r.metrics()
	var b strings.Builder
	for _, m := range order {
		switch m := m.(type) {
		case *Counter:
			writePromScalar(&b, m.name, m.help, "counter", labels, float64(m.Load()))
		case *Gauge:
			writePromScalar(&b, m.name, m.help, "gauge", labels, float64(m.Load()))
		case gaugeFunc:
			writePromScalar(&b, m.name, m.help, m.typ, labels, m.f())
		case *Histogram:
			writePromHistogram(&b, m, labels)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry as Prometheus
// text — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func writePromScalar(b *strings.Builder, name, help, typ string, labels []Label, v float64) {
	writePromHeader(b, name, help, typ)
	b.WriteString(name)
	writePromLabels(b, labels, "", 0)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

func writePromHistogram(b *strings.Builder, h *Histogram, labels []Label) {
	writePromHeader(b, h.name, h.help, "histogram")
	counts := h.BucketCounts()
	last := -1
	for k, n := range counts {
		if n != 0 {
			last = k
		}
	}
	var cum int64
	for k := 0; k <= last; k++ {
		cum += counts[k]
		b.WriteString(h.name)
		b.WriteString("_bucket")
		writePromLabels(b, labels, "le", h.upperBound(k))
		fmt.Fprintf(b, " %d\n", cum)
	}
	b.WriteString(h.name)
	b.WriteString("_bucket")
	writePromLabels(b, labels, "le", -1) // le="+Inf"
	fmt.Fprintf(b, " %d\n", cum)
	b.WriteString(h.name)
	b.WriteString("_sum")
	writePromLabels(b, labels, "", 0)
	fmt.Fprintf(b, " %d\n", h.Sum())
	b.WriteString(h.name)
	b.WriteString("_count")
	writePromLabels(b, labels, "", 0)
	fmt.Fprintf(b, " %d\n", cum)
}

func writePromHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// writePromLabels renders the constant labels plus an optional le label
// (leKey == "le"; le < 0 means +Inf) as a {k="v",...} block, or nothing
// when there are no labels at all.
func writePromLabels(b *strings.Builder, labels []Label, leKey string, le int64) {
	if len(labels) == 0 && leKey == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%q", l.Key, l.Value)
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		if le < 0 {
			fmt.Fprintf(b, "%s=%q", leKey, "+Inf")
		} else {
			fmt.Fprintf(b, "%s=\"%d\"", leKey, le)
		}
	}
	b.WriteByte('}')
}

// expvarRegistries backs PublishExpvar: expvar.Publish panics on
// duplicate names and offers no unpublish, so each name is published
// exactly once with an indirection that always reads the registry most
// recently bound to it (tests create many short-lived servers in one
// process).
var (
	expvarMu         sync.Mutex
	expvarRegistries = map[string]*Registry{}
)

// PublishExpvar exposes r's snapshot under name in the process-wide
// expvar namespace (GET /debug/vars). Rebinding an already-published
// name atomically switches the exported variable to the new registry.
func PublishExpvar(name string, r *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarRegistries[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			reg := expvarRegistries[name]
			expvarMu.Unlock()
			return reg.Snapshot()
		}))
	}
	expvarRegistries[name] = r
}
