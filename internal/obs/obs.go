// Package obs is the study's shared observability substrate: a lock-free
// metrics registry with Prometheus-text, JSON and expvar exposition, and a
// low-overhead span tracer with a JSONL sink. Both the offline
// leave-one-dataset-out study (internal/eval) and the online serving
// pipeline (internal/serve) record into it, so per-stage time, pairs,
// tokens and Table-6 dollars can be attributed to the code that produced
// them instead of being folded into one end-to-end wall-clock number.
//
// The package has two design rules:
//
//   - Disabled instrumentation costs (almost) nothing. Every handle type —
//     *Counter, *Gauge, *Histogram, *Span, *Stages — treats a nil receiver
//     as "instrumentation off": methods return immediately, allocate
//     nothing, and take no locks. Hot kernels therefore call through
//     unconditionally; whether anything is recorded is decided once, where
//     the handle (or the tracing context) is created. The zero-alloc
//     guarantee is pinned by bench_obs_test.go and TestObsDisabledZeroAlloc.
//
//   - Recording never blocks recording. Counters, gauges and histogram
//     buckets are single atomic adds; finished spans append to one of a
//     fixed set of mutex-sharded buffers keyed by span ID, so concurrent
//     goroutines almost never contend. Aggregation (quantiles, Prometheus
//     text, JSONL) happens only at read time.
//
// Tracing is context-carried: WithTracer installs a Tracer into a
// context, Start opens a span under the context's current span, and code
// that never sees a traced context runs the nil fast path. The Stages
// helper accumulates interleaved per-item stage timings (serialize vs
// classify inside one loop) into one synthetic span per stage.
package obs

import (
	"context"
	"time"
)

// ctxKey carries the current *Span (and through it the Tracer) in a
// context. An empty-struct key makes the disabled-path Value lookup
// allocation-free.
type ctxKey struct{}

// WithTracer returns a context whose descendants record spans into t.
// Spans started under the returned context are roots (parent 0).
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &Span{t: t})
}

// spanFrom returns the context's current span, or nil when ctx is nil or
// carries no tracer.
func spanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a span named name under ctx's current span and returns a
// context carrying the new span. When ctx carries no tracer (or is nil)
// it returns (ctx, nil) without allocating; the nil *Span is safe to use.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := spanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.Child(name)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// WithSpan returns a context whose Start calls open children of s — the
// bridge for code that created a span outside any context (Tracer.Root on
// a worker goroutine) and hands it to context-carried instrumentation.
// With a nil span it returns ctx unchanged (still untraced).
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// now returns the time since the tracer's epoch.
func (t *Tracer) now() time.Duration { return time.Since(t.epoch) }
