// Package lsh implements sublinear candidate-pair generation for
// dataset-scale deduplication: a sharded MinHash signature index with LSH
// banding over the text-profile word tokens of internal/textsim.
//
// The token blocker in internal/blocking bounds — rather than avoids — the
// O(|L|×|R|) blow-up: every left record walks the posting lists of all of
// its rare tokens. This index instead hashes each record's token set into
// k MinHash values, folds them into b band keys of r rows each, and only
// compares records that collide in at least one band bucket. Two records
// with token-set Jaccard similarity s collide in some band with
// probability 1-(1-s^r)^b, so near-duplicates are found with high
// probability while the vast majority of record pairs are never looked at.
// Every bucket collision is verified with the merge-join Jaccard kernel
// (textsim.JaccardHashes) before a candidate is emitted, so banding
// controls recall and the verification threshold controls precision.
//
// Token sets are represented as textsim.TokenHash fingerprints, not
// interner IDs: interner IDs are assigned in first-encounter order, so
// signatures derived from them would vary with goroutine scheduling and
// process history. Fingerprints are a pure function of the token bytes,
// which is what makes a fixed-seed build byte-identical at any worker
// count — and across separate runs.
//
// The index is sharded by band: each band owns an independent bucket map,
// which makes the parallel build embarrassingly parallel (one worker per
// band inserts in record order) and keeps the result byte-identical at any
// worker count — the determinism contract of internal/par. The probe path
// runs allocation-free at steady state against pooled Prober scratch.
package lsh

import (
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// Config tunes the index. The number of MinHash functions is Bands*Rows.
type Config struct {
	// Bands is the number of LSH bands — and the shard count of the
	// bucket index.
	Bands int
	// Rows is the number of MinHash rows folded into each band key.
	// More rows make a band collision stricter (fewer, higher-precision
	// candidates); more bands add independent chances to collide (higher
	// recall, more candidates).
	Rows int
	// Seed derives the MinHash hash-function parameters. Two indexes
	// with the same seed and geometry produce identical signatures.
	Seed uint64
	// TopK caps how many candidates one probe emits (by descending
	// verified Jaccard, ties broken by ascending record index).
	TopK int
	// MinJaccard is the verification threshold: bucket collisions whose
	// merge-join Jaccard falls below it are discarded.
	MinJaccard float64
	// MaxBucket caps a bucket's posting list; once full, later records
	// are not indexed under that band key (a degenerate key no longer
	// discriminates). Zero means the DefaultConfig cap.
	MaxBucket int
}

// DefaultConfig returns index settings tuned for recall parity with the
// token blocker on the synthetic dedup corpora and the benchmark
// datasets, whose true duplicates reach down to Jaccard ≈ 0.2: 64 bands ×
// 2 rows (128 hashes) collides a Jaccard-0.4 pair with probability
// 1-(1-0.16)^64 ≈ 0.99999 and a 0.2 pair at ≈ 0.93, while the
// verification threshold keeps the emitted candidates clean.
func DefaultConfig() Config {
	return Config{
		Bands:      64,
		Rows:       2,
		Seed:       1,
		TopK:       10,
		MinJaccard: 0.15,
		MaxBucket:  256,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Bands <= 0 {
		c.Bands = d.Bands
	}
	if c.Rows <= 0 {
		c.Rows = d.Rows
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.MinJaccard <= 0 {
		c.MinJaccard = d.MinJaccard
	}
	if c.MaxBucket <= 0 {
		c.MaxBucket = d.MaxBucket
	}
	return c
}

// Index is the sharded MinHash/LSH candidate index. Build it in bulk with
// BuildRecords (parallel, deterministic) or incrementally with Add/AddIDs
// (single writer); concurrent probes through independent Probers are safe
// once no writer is active.
type Index struct {
	cfg Config
	hp  hashParams

	// Record token sets live in one flat arena: record i's ascending
	// unique token fingerprints are ids[offs[i]:offs[i+1]].
	offs []uint32
	ids  []uint64

	// bands[b] maps a band key to the indices of the records filed under
	// it, in insertion (= record) order. One map per band is the shard
	// structure: band b is only ever touched by band b's build worker.
	bands []map[uint64][]int32

	postings int64 // total posting entries across all buckets
	skipped  int64 // insertions dropped by the MaxBucket cap

	verifies atomic.Int64 // Jaccard verifications performed by probes
	emitted  atomic.Int64 // candidates emitted by probes

	addScratch []uint64 // signature scratch for the incremental writer
}

// NewIndex returns an empty index with the given configuration.
func NewIndex(cfg Config) *Index {
	cfg = cfg.withDefaults()
	ix := &Index{
		cfg:   cfg,
		hp:    newHashParams(cfg.Bands*cfg.Rows, cfg.Seed),
		offs:  []uint32{0},
		bands: make([]map[uint64][]int32, cfg.Bands),
	}
	for b := range ix.bands {
		ix.bands[b] = make(map[uint64][]int32)
	}
	return ix
}

// Len returns the number of indexed records.
func (ix *Index) Len() int { return len(ix.offs) - 1 }

// recHashes returns record i's ascending unique token fingerprints.
func (ix *Index) recHashes(i int32) []uint64 {
	return ix.ids[ix.offs[i]:ix.offs[i+1]]
}

// AddHashes indexes one record given its ascending unique token
// fingerprints (see RecordHashes) and returns the record's index. The
// fingerprints are copied into the index's arena. Not safe for concurrent
// use with other writers or with probes.
func (ix *Index) AddHashes(sorted []uint64) int {
	idx := int32(ix.Len())
	ix.ids = append(ix.ids, sorted...)
	ix.offs = append(ix.offs, uint32(len(ix.ids)))
	if cap(ix.addScratch) < ix.hp.k() {
		ix.addScratch = make([]uint64, ix.hp.k())
	}
	sig := ix.addScratch[:ix.hp.k()]
	ix.hp.signature(sorted, sig)
	for b := 0; b < ix.cfg.Bands; b++ {
		key := bandKey(sig, b, ix.cfg.Rows)
		ix.insert(b, key, idx)
	}
	return int(idx)
}

// insert files idx under key in band b, honouring the bucket cap.
func (ix *Index) insert(b int, key uint64, idx int32) {
	bucket := ix.bands[b][key]
	if len(bucket) >= ix.cfg.MaxBucket {
		ix.skipped++
		return
	}
	ix.bands[b][key] = append(bucket, idx)
	ix.postings++
}

// BuildRecords bulk-builds an index over records across the given number
// of par.Workers. The build is deterministic at any worker count: phase
// one computes token IDs and band keys into per-record slots, phase two
// assembles the arena sequentially, and phase three gives each band shard
// to one worker that inserts in record order.
func BuildRecords(cfg Config, records []record.Record, workers int) *Index {
	ix := NewIndex(cfg)
	cfg = ix.cfg
	n := len(records)
	if n == 0 {
		return ix
	}

	k := cfg.Bands * cfg.Rows
	tokIDs := make([][]uint64, n)
	keys := make([]uint64, n*cfg.Bands)
	w := par.Workers(workers)
	chunks := w * 8
	if chunks > n {
		chunks = n
	}
	chunkSize := (n + chunks - 1) / chunks
	_ = par.Do(chunks, workers, func(c int) error {
		lo, hi := c*chunkSize, (c+1)*chunkSize
		if hi > n {
			hi = n
		}
		sig := make([]uint64, k)
		for i := lo; i < hi; i++ {
			tokIDs[i] = RecordHashes(records[i], nil)
			ix.hp.signature(tokIDs[i], sig)
			for b := 0; b < cfg.Bands; b++ {
				keys[i*cfg.Bands+b] = bandKey(sig, b, cfg.Rows)
			}
		}
		return nil
	})

	total := 0
	for _, t := range tokIDs {
		total += len(t)
	}
	ix.ids = make([]uint64, 0, total)
	ix.offs = make([]uint32, 1, n+1)
	for _, t := range tokIDs {
		ix.ids = append(ix.ids, t...)
		ix.offs = append(ix.offs, uint32(len(ix.ids)))
	}

	// Per-band insertion: each worker owns whole shards, so the posting
	// order inside every bucket is the record order regardless of how the
	// shards were scheduled.
	postings := make([]int64, cfg.Bands)
	skipped := make([]int64, cfg.Bands)
	_ = par.Do(cfg.Bands, workers, func(b int) error {
		m := ix.bands[b]
		for i := 0; i < n; i++ {
			key := keys[i*cfg.Bands+b]
			bucket := m[key]
			if len(bucket) >= cfg.MaxBucket {
				skipped[b]++
				continue
			}
			m[key] = append(bucket, int32(i))
			postings[b]++
		}
		return nil
	})
	for b := 0; b < cfg.Bands; b++ {
		ix.postings += postings[b]
		ix.skipped += skipped[b]
	}
	return ix
}

// Stats summarises the index and its cumulative probe work.
type Stats struct {
	// Records is the number of indexed records; Buckets and Postings
	// describe the band shards (Postings ≤ Records × Bands when buckets
	// cap out).
	Records  int
	Buckets  int
	Postings int64
	// Skipped counts insertions dropped by the MaxBucket cap.
	Skipped int64
	// Verifies is the number of merge-join Jaccard verifications probes
	// have performed — the "record comparisons" the index actually did.
	Verifies int64
	// Emitted is the number of candidates probes have emitted.
	Emitted int64
}

// Stats returns current counters. Safe concurrently with probes.
func (ix *Index) Stats() Stats {
	buckets := 0
	for _, m := range ix.bands {
		buckets += len(m)
	}
	return Stats{
		Records:  ix.Len(),
		Buckets:  buckets,
		Postings: ix.postings,
		Skipped:  ix.skipped,
		Verifies: ix.verifies.Load(),
		Emitted:  ix.emitted.Load(),
	}
}

// RecordHashes returns the ascending unique token fingerprints of r,
// appending into buf (pass nil to allocate). The underlying token set is
// exactly the word-token set textsim.Profile.SortedIDs holds for the
// record's serialization — just keyed by fingerprint instead of interner
// ID — so verification Jaccards here equal TokenJaccardP over profiles,
// without paying for trigram profiles or the process-wide profile cache
// at million-record scale.
func RecordHashes(r record.Record, buf []uint64) []uint64 {
	return TextHashes(record.SerializeRecord(r, record.SerializeOptions{}), buf)
}

// TextHashes returns the ascending unique token fingerprints of s,
// appending into buf.
func TextHashes(s string, buf []uint64) []uint64 {
	toks := textsim.Tokens(s)
	if len(toks) == 0 {
		return buf[:0]
	}
	out := buf[:0]
	for _, t := range toks {
		out = append(out, textsim.TokenHash(t))
	}
	sortU64(out)
	// In-place dedup of the now-sorted fingerprints.
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// sortU64 sorts ascending in place without allocating (insertion sort for
// the short token lists records produce, shell gaps above that).
func sortU64(xs []uint64) {
	n := len(xs)
	gap := 1
	for gap < n/3 {
		gap = gap*3 + 1
	}
	for ; gap >= 1; gap /= 3 {
		for i := gap; i < n; i++ {
			v := xs[i]
			j := i
			for j >= gap && xs[j-gap] > v {
				xs[j] = xs[j-gap]
				j -= gap
			}
			xs[j] = v
		}
	}
}

// hashSeedRNG derives the deterministic parameter stream for the MinHash
// functions.
func hashSeedRNG(seed uint64) *stats.RNG {
	return stats.NewRNG(seed).Split("lsh:minhash")
}
