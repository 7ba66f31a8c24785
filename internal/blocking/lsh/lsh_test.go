package lsh

import (
	"testing"

	"repro/internal/blocking"
	"repro/internal/datasets"
	"repro/internal/record"
	"repro/internal/textsim"
)

// probeEveryRecord self-joins the index (only-greater convention) and
// returns one candidate slice per record.
func probeEveryRecord(ix *Index) [][]Candidate {
	p := ix.NewProber()
	out := make([][]Candidate, ix.Len())
	for i := range out {
		out[i] = p.ProbeStored(i, nil, true)
	}
	return out
}

func sameCandidates(t *testing.T, a, b [][]Candidate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("record %d: %d vs %d candidates", i, len(a[i]), len(b[i]))
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("record %d candidate %d: %+v vs %+v", i, k, a[i][k], b[i][k])
			}
		}
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	corpus := datasets.GenerateDedupCorpus(2000, 7, 1)
	base := BuildRecords(Config{}, corpus.Records, 1)
	baseCands := probeEveryRecord(base)
	for _, workers := range []int{2, 4, 8} {
		ix := BuildRecords(Config{}, corpus.Records, workers)
		bs, is := base.Stats(), ix.Stats()
		if bs.Records != is.Records || bs.Buckets != is.Buckets || bs.Postings != is.Postings || bs.Skipped != is.Skipped {
			t.Fatalf("workers=%d: index stats differ: %+v vs %+v", workers, bs, is)
		}
		sameCandidates(t, baseCands, probeEveryRecord(ix))
	}
}

func TestIncrementalMatchesBulk(t *testing.T) {
	corpus := datasets.GenerateDedupCorpus(500, 3, 0)
	bulk := BuildRecords(Config{}, corpus.Records, 0)
	inc := NewIndex(Config{})
	for i, r := range corpus.Records {
		if got := inc.AddHashes(RecordHashes(r, nil)); got != i {
			t.Fatalf("Add returned index %d for record %d", got, i)
		}
	}
	bs, is := bulk.Stats(), inc.Stats()
	if bs.Buckets != is.Buckets || bs.Postings != is.Postings {
		t.Fatalf("incremental index diverges from bulk: %+v vs %+v", bs, is)
	}
	sameCandidates(t, probeEveryRecord(bulk), probeEveryRecord(inc))
}

// TestBandRowTradeoffs pins the banding theory's direction on a real
// corpus: adding bands can only add collision chances (recall up,
// comparisons up); adding rows per band makes each collision stricter
// (comparisons down).
func TestBandRowTradeoffs(t *testing.T) {
	corpus := datasets.GenerateDedupCorpus(4000, 11, 0)
	truth := corpus.TruthPairs()

	run := func(bands, rows int) (recall float64, verifies int64) {
		ix := BuildRecords(Config{Bands: bands, Rows: rows, MinJaccard: 0.01}, corpus.Records, 0)
		cands := probeEveryRecord(ix)
		found := make(map[[2]string]bool)
		for i, cs := range cands {
			for _, c := range cs {
				k := [2]string{corpus.Records[i].ID, corpus.Records[c.Index].ID}
				if !truth[k] {
					k = [2]string{k[1], k[0]}
				}
				if truth[k] {
					found[k] = true
				}
			}
		}
		return float64(len(found)) / float64(len(truth)), ix.Stats().Verifies
	}

	rec8, ver8 := run(8, 4)
	rec32, ver32 := run(32, 4)
	if rec32 < rec8 {
		t.Fatalf("more bands lowered recall: %d bands %.4f vs %d bands %.4f", 32, rec32, 8, rec8)
	}
	if ver32 < ver8 {
		t.Fatalf("more bands lowered comparisons: %d vs %d", ver32, ver8)
	}
	_, verRows8 := run(32, 8)
	if verRows8 > ver32 {
		t.Fatalf("more rows per band should prune comparisons: rows=8 did %d vs rows=4 %d", verRows8, ver32)
	}
}

// TestRecallVsTokenBlockerOnBenchmark holds the index to the satellite
// acceptance bar on a benchmark dataset: equal-or-better blocking recall
// than the IDF token blocker while emitting no more candidates.
func TestRecallVsTokenBlockerOnBenchmark(t *testing.T) {
	d := datasets.MustGenerate("FOZA", 42)
	var left, right []record.Record
	seenL, seenR := map[string]bool{}, map[string]bool{}
	truth := make(map[[2]string]bool)
	for _, p := range d.Pairs {
		if !seenL[p.Left.ID] {
			seenL[p.Left.ID] = true
			left = append(left, p.Left)
		}
		if !seenR[p.Right.ID] {
			seenR[p.Right.ID] = true
			right = append(right, p.Right)
		}
		if p.Match {
			truth[[2]string{p.Left.ID, p.Right.ID}] = true
		}
	}

	b := blocking.New(blocking.DefaultConfig())
	tokenPairs, _ := b.CandidatePairsStats(left, right)
	tokenRecall := blocking.Recall(tokenPairs, truth)

	// Benchmark matches reach down to Jaccard ≈ 0.36, so probe with a
	// loose geometry: 64 bands × 2 rows collides such pairs w.p. ≈ 1-3e-5.
	ix := BuildRecords(Config{Bands: 64, Rows: 2}, right, 0)
	p := ix.NewProber()
	var lshPairs []record.Pair
	var buf []Candidate
	for _, l := range left {
		buf = p.ProbeHashes(RecordHashes(l, nil), buf[:0])
		for _, c := range buf {
			lshPairs = append(lshPairs, record.Pair{Left: l, Right: right[c.Index]})
		}
	}
	lshRecall := blocking.Recall(lshPairs, truth)

	if lshRecall < tokenRecall {
		t.Fatalf("lsh recall %.4f below token blocker %.4f", lshRecall, tokenRecall)
	}
	if len(lshPairs) > len(tokenPairs) {
		t.Fatalf("lsh emitted more candidates (%d) than the token blocker (%d)", len(lshPairs), len(tokenPairs))
	}
	t.Logf("recall: lsh %.4f (%d cands) vs token %.4f (%d cands)", lshRecall, len(lshPairs), tokenRecall, len(tokenPairs))
}

func TestProbeTopKThresholdAndOrder(t *testing.T) {
	corpus := datasets.GenerateDedupCorpus(2000, 5, 0)
	cfg := Config{TopK: 3, MinJaccard: 0.4}
	ix := BuildRecords(cfg, corpus.Records, 0)
	p := ix.NewProber()
	probes := 0
	for i := 0; i < ix.Len(); i++ {
		cs := p.ProbeStored(i, nil, false)
		if len(cs) > 3 {
			t.Fatalf("record %d emitted %d candidates, TopK 3", i, len(cs))
		}
		for k, c := range cs {
			if c.Jaccard < 0.4 {
				t.Fatalf("record %d candidate %d below MinJaccard: %.3f", i, k, c.Jaccard)
			}
			if int(c.Index) == i {
				t.Fatalf("record %d emitted itself", i)
			}
			if k > 0 && (cs[k-1].Jaccard < c.Jaccard || (cs[k-1].Jaccard == c.Jaccard && cs[k-1].Index > c.Index)) {
				t.Fatalf("record %d candidates out of order at %d: %+v", i, k, cs)
			}
		}
		if len(cs) > 0 {
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("no probe emitted any candidate")
	}
}

// TestRecordHashesMatchProfileJaccard pins the same-token-set claim:
// RecordHashes carries exactly the word-token set Profile.SortedIDs holds
// (keyed by fingerprint instead of interner ID), so verification Jaccards
// equal TokenJaccardP over profiles.
func TestRecordHashesMatchProfileJaccard(t *testing.T) {
	corpus := datasets.GenerateDedupCorpus(120, 9, 0)
	profiles := make([]*textsim.Profile, len(corpus.Records))
	hashes := make([][]uint64, len(corpus.Records))
	profs := textsim.NewProfileCache()
	for i, r := range corpus.Records {
		profiles[i] = profs.Get(record.SerializeRecord(r, record.SerializeOptions{}))
		hashes[i] = RecordHashes(r, nil)
		if len(hashes[i]) != len(profiles[i].SortedIDs) {
			t.Fatalf("record %s: %d fingerprints vs %d profile tokens", r.ID, len(hashes[i]), len(profiles[i].SortedIDs))
		}
	}
	for i := range corpus.Records {
		for j := i + 1; j < len(corpus.Records); j++ {
			want := textsim.TokenJaccardP(profiles[i], profiles[j])
			got := textsim.JaccardHashes(hashes[i], hashes[j])
			if got != want {
				t.Fatalf("pair (%d,%d): hash Jaccard %.6f vs profile %.6f", i, j, got, want)
			}
		}
	}
}

func TestMaxBucketCap(t *testing.T) {
	// 300 identical records collide in every band; a cap of 16 must stop
	// every bucket at 16 postings and count the rest as skipped.
	cfg := Config{Bands: 8, Rows: 2, MaxBucket: 16}
	ix := NewIndex(cfg)
	for i := 0; i < 300; i++ {
		ix.AddHashes(RecordHashes(record.Record{ID: "r", Values: []string{"identical product title"}}, nil))
	}
	st := ix.Stats()
	if st.Postings != 8*16 {
		t.Fatalf("postings %d, want %d", st.Postings, 8*16)
	}
	if st.Skipped != 8*(300-16) {
		t.Fatalf("skipped %d, want %d", st.Skipped, 8*(300-16))
	}
	for _, m := range ix.bands {
		for key, bucket := range m {
			if len(bucket) > 16 {
				t.Fatalf("bucket %x grew past the cap: %d", key, len(bucket))
			}
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	ix := BuildRecords(Config{}, nil, 0)
	if ix.Len() != 0 {
		t.Fatalf("empty build has %d records", ix.Len())
	}
	p := ix.NewProber()
	if got := p.ProbeHashes([]uint64{1, 2, 3}, nil); len(got) != 0 {
		t.Fatalf("probe of empty index returned %d candidates", len(got))
	}
	// A record with no tokens must still index (empty set) and not panic.
	ix2 := NewIndex(Config{})
	ix2.AddHashes(RecordHashes(record.Record{ID: "a", Values: []string{""}}, nil))
	ix2.AddHashes(RecordHashes(record.Record{ID: "b", Values: []string{"real title here"}}, nil))
	p2 := ix2.NewProber()
	_ = p2.ProbeStored(0, nil, false)
	_ = p2.ProbeStored(1, nil, false)
}

func TestSortU64(t *testing.T) {
	xs := []uint64{5, 1, 4, 1, 3, 9, 0, 2, 8, 7, 6, 2}
	sortU64(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Fatalf("not sorted: %v", xs)
		}
	}
	sortU64(nil)
	sortU64([]uint64{1})
}
