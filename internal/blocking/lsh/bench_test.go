package lsh

import (
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/record"
)

// benchCorpus lazily builds one shared 20k corpus + index for the probe
// benchmarks (and the alloc gate that mirrors one, alloc_test.go) so
// `go test -bench` doesn't pay generation per benchmark.
var benchState struct {
	once    sync.Once
	records []record.Record
	ix      *Index
}

func benchIndex(b testing.TB) ([]record.Record, *Index) {
	benchState.once.Do(func() {
		c := datasets.GenerateDedupCorpus(20000, 1, 0)
		benchState.records = c.Records
		benchState.ix = BuildRecords(DefaultConfig(), c.Records, 0)
	})
	if benchState.ix == nil {
		b.Fatal("bench index failed to build")
	}
	return benchState.records, benchState.ix
}

// BenchmarkDedupIndexBuild measures bulk index construction throughput
// (tokenize → signature → band insertion) over a 10k-record corpus.
func BenchmarkDedupIndexBuild(b *testing.B) {
	c := datasets.GenerateDedupCorpus(10000, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		ix = BuildRecords(DefaultConfig(), c.Records, 0)
	}
	b.StopTimer()
	recs := float64(len(c.Records)) * float64(b.N)
	b.ReportMetric(recs/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(ix.Stats().Postings)*float64(b.N)/b.Elapsed().Seconds(), "postings/s")
}

// BenchmarkDedupProbeStored is the steady-state hot path: probing an
// already-indexed record against the full index.
// TestProbeStoredZeroAlloc holds this at 0 allocs/op.
func BenchmarkDedupProbeStored(b *testing.B) {
	_, ix := benchIndex(b)
	p := ix.AcquireProber()
	defer ReleaseProber(p)
	buf := make([]Candidate, 0, ix.cfg.TopK)
	p.ProbeStored(0, buf, false) // grow the stamp table before timing
	emitted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.ProbeStored(i%ix.Len(), buf[:0], false)
		emitted += len(buf)
	}
	b.StopTimer()
	b.ReportMetric(float64(emitted)/b.Elapsed().Seconds(), "cands/s")
}

// BenchmarkDedupProbeRecord is the external-record path (serialize →
// tokenize → fingerprint → probe), the per-arrival cost in stream mode.
func BenchmarkDedupProbeRecord(b *testing.B) {
	records, ix := benchIndex(b)
	p := ix.AcquireProber()
	defer ReleaseProber(p)
	buf := make([]Candidate, 0, ix.cfg.TopK)
	var ids []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids = RecordHashes(records[i%len(records)], ids)
		buf = p.ProbeHashes(ids, buf[:0])
	}
}

// BenchmarkDedupSignature isolates the MinHash kernel: 128 hash rows over
// one record's fingerprint set.
func BenchmarkDedupSignature(b *testing.B) {
	records, ix := benchIndex(b)
	ids := RecordHashes(records[0], nil)
	sig := make([]uint64, ix.hp.k())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.hp.signature(ids, sig)
	}
}
