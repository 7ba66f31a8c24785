package lsh

import (
	"sync"

	"repro/internal/textsim"
)

// Candidate is one emitted candidate: the indexed record and its verified
// token-set Jaccard similarity to the probe.
type Candidate struct {
	Index   int32
	Jaccard float64
}

// Prober holds the per-goroutine probe scratch: signature rows, the
// seen-record epoch stamps and the top-k accumulator. A Prober is not safe
// for concurrent use; give each goroutine its own (NewProber or the
// index-owned pool via AcquireProber/ReleaseProber). At steady state —
// stamp table grown to the index size — a probe performs zero allocations.
type Prober struct {
	ix    *Index
	sig   []uint64
	stamp []uint32
	epoch uint32
	top   []Candidate
	ids   []uint64 // token-fingerprint scratch for record/text probes
}

// NewProber returns probe scratch bound to ix.
func (ix *Index) NewProber() *Prober {
	return &Prober{
		ix:  ix,
		sig: make([]uint64, ix.hp.k()),
		top: make([]Candidate, 0, ix.cfg.TopK+1),
	}
}

// proberPool pools Probers per index so fan-out callers (the dedup
// pipeline's chunked probe workers) reuse scratch across chunks.
var proberPool sync.Pool

// AcquireProber returns a pooled Prober bound to ix.
func (ix *Index) AcquireProber() *Prober {
	if p, ok := proberPool.Get().(*Prober); ok && p.ix == ix {
		return p
	}
	return ix.NewProber()
}

// ReleaseProber returns p to the pool.
func ReleaseProber(p *Prober) { proberPool.Put(p) }

// ProbeStored appends the candidates of the already-indexed record i to
// dst and returns it. The record itself is never a candidate; with
// onlyGreater set, only records with index > i are emitted — the self-join
// convention that yields every unordered pair exactly once when all
// records are probed.
func (p *Prober) ProbeStored(i int, dst []Candidate, onlyGreater bool) []Candidate {
	self := int32(i)
	min := int32(-1)
	if onlyGreater {
		min = self
	}
	return p.probe(p.ix.recHashes(self), self, min, dst)
}

// ProbeHashes appends the candidates of an external token-fingerprint set
// (ascending, unique — see RecordHashes/TextHashes) to dst and returns it.
func (p *Prober) ProbeHashes(ids []uint64, dst []Candidate) []Candidate {
	return p.probe(ids, -1, -1, dst)
}

// probe is the shared hot path: signature → band buckets → epoch-stamped
// dedup → merge-join Jaccard verification → bounded insertion sort top-k.
func (p *Prober) probe(ids []uint64, self, min int32, dst []Candidate) []Candidate {
	ix := p.ix
	if n := ix.Len(); len(p.stamp) < n {
		p.stamp = make([]uint32, n)
		p.epoch = 0
	}
	p.epoch++
	if p.epoch == 0 { // uint32 wrap: stale stamps would alias, reset
		clear(p.stamp)
		p.epoch = 1
	}
	epoch := p.epoch

	ix.hp.signature(ids, p.sig)
	top := p.top[:0]
	topK := ix.cfg.TopK
	minJ := ix.cfg.MinJaccard
	var verifies int64
	for b := 0; b < ix.cfg.Bands; b++ {
		key := bandKey(p.sig, b, ix.cfg.Rows)
		for _, idx := range ix.bands[b][key] {
			if idx == self || idx <= min || p.stamp[idx] == epoch {
				continue
			}
			p.stamp[idx] = epoch
			verifies++
			j := textsim.JaccardHashes(ids, ix.recHashes(idx))
			if j < minJ {
				continue
			}
			// Bounded insertion keeps top sorted by (-Jaccard, Index);
			// candidates past the k-th are dropped.
			pos := len(top)
			for pos > 0 && (top[pos-1].Jaccard < j || (top[pos-1].Jaccard == j && top[pos-1].Index > idx)) {
				pos--
			}
			if pos >= topK {
				continue
			}
			if len(top) < topK {
				top = append(top, Candidate{})
			}
			copy(top[pos+1:], top[pos:])
			top[pos] = Candidate{Index: idx, Jaccard: j}
		}
	}
	p.top = top
	ix.verifies.Add(verifies)
	ix.emitted.Add(int64(len(top)))
	return append(dst, top...)
}
