package crossem

// Observability overhead benchmarks (EXPERIMENTS.md "Observability"):
// the contract of internal/obs is that disabled instrumentation is free —
// nil handles on the hot path, zero allocations — so matchers can carry
// their stage spans unconditionally. The ObsDisabled benchmarks pin that
// contract on the real prediction hot path (StringSim over a benchmark
// dataset, stage accounting off) and on the bare Stages calls; the
// ObsEnabled variant prices what turning the tracer on actually costs.

import (
	"context"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/stats"
)

// obsBenchTask builds a warm StringSim prediction task over real
// benchmark pairs; ctx selects traced or untraced stage accounting.
func obsBenchTask(b *testing.B, ctx context.Context, n int) (*matchers.StringSim, matchers.Task) {
	b.Helper()
	d := datasets.MustGenerate("ABT", eval.DatasetSeed)
	if n > len(d.Pairs) {
		n = len(d.Pairs)
	}
	pairs := make([]record.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = d.Pairs[i].Pair
	}
	m := matchers.NewStringSim()
	m.Train(nil, stats.NewRNG(1).Split("train"))
	task := matchers.Task{
		Pairs: pairs,
		Ctx:   ctx,
		Opts:  record.SerializeOptions{Cache: record.NewSerializeCache()},
	}
	m.Predict(task) // warm the serialization and profile caches
	return m, task
}

// BenchmarkObsDisabledStringSimPredict is the steady-state prediction hot
// path with instrumentation compiled in but switched off — the everyday
// configuration. The only allocation per op is Predict's result slice;
// the stage accounting contributes none (pinned exactly by
// BenchmarkStagesDisabledCalls and obs's TestDisabledPathsAllocateNothing).
func BenchmarkObsDisabledStringSimPredict(b *testing.B) {
	m, task := obsBenchTask(b, context.Background(), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(task)
	}
}

// BenchmarkObsEnabledStringSimPredict is the same hot path under an
// active tracer: per-Predict span bookkeeping plus two stage spans.
func BenchmarkObsEnabledStringSimPredict(b *testing.B) {
	tr := obs.NewTracer()
	m, task := obsBenchTask(b, obs.WithTracer(context.Background(), tr), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(task)
	}
}

// BenchmarkStagesDisabledCalls prices the raw disabled-path calls every
// matcher makes unconditionally: StartStages on an untraced context plus
// the Enter/SetInt/End sequence on the resulting nil handle. Must report
// 0 allocs/op.
func BenchmarkStagesDisabledCalls(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := obs.StartStages(ctx)
		st.Enter("serialize")
		st.Enter("classify")
		st.Exit()
		st.SetInt("classify", "pairs", 64)
		st.End()
	}
}
