package flight

import "testing"

// BenchmarkFlightWrite is the ring-write hot path: one Log per served
// request. TestFlightLogZeroAlloc gates it at 0 allocs/op.
func BenchmarkFlightWrite(b *testing.B) {
	r := New(4096)
	rec := Record{
		TimeUS: 1, Key: 0xabcdef, Code: CodeScored, Tier: 1, Pairs: 64,
		QueueUS: 120, BatchUS: 800, PredictUS: 4000, CostNano: 55,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.TimeUS = int64(i)
		r.Log(rec)
	}
}

// BenchmarkFlightDisabled is the nil-recorder path every request pays
// when the flight recorder is off. Must be 0 allocs/op and ~free.
func BenchmarkFlightDisabled(b *testing.B) {
	var r *Recorder
	rec := Record{Code: CodeScored, Pairs: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Log(rec)
		if r.IsStraggler(int64(i)) {
			b.Fatal("nil recorder flagged a straggler")
		}
	}
}

// BenchmarkFlightSnapshot is the cold evidence path (breach dump).
func BenchmarkFlightSnapshot(b *testing.B) {
	r := New(4096)
	for i := 0; i < 8192; i++ {
		r.Log(Record{TimeUS: int64(i), Pairs: 1})
	}
	buf := make([]Record, 0, r.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.Snapshot(buf[:0])
	}
	if len(buf) == 0 {
		b.Fatal("empty snapshot")
	}
}
