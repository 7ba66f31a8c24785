package lm

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/mlcore"
	"repro/internal/record"
	"repro/internal/textsim"
)

var cacheProbes = []string{
	"", "  ", "Sony WH-1000XM4", "sony wh-1000xm4", "$99.00", "1,234",
	"v1.2.3 firmware", "café au lait", "北京 大学", "released 1994",
	"SKU-83XJ9 black 128GB", "the quick brown fox jumps over the lazy dog",
}

// TestTextCachesConcurrent drives the shared text cache and two owned
// ones side by side, three goroutines on each, plus the pretrained-
// weighter Once; under -race this pins the double-checked locking in
// textcache.go and the copy-on-observe snapshot handoff in pretrained.go.
// Every cache must score a value pair exactly as the shared one does, and
// an encoder on its own cache must encode exactly as one on the shared
// cache.
func TestTextCachesConcurrent(t *testing.T) {
	caps := []Capabilities{
		{Normalization: 0.2, Semantics: 0.3, Attention: 0.4},
		{Normalization: 0.9, Semantics: 0.7, Attention: 0.6},
	}
	caches := []*textCache{
		sharedText,
		newTextCache(textsim.NewProfileCache()),
		newTextCache(textsim.NewProfileCache()),
	}
	var wg sync.WaitGroup
	for w := 0; w < 3*len(caches); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tc := caches[w%len(caches)]
			for i := 0; i < 100; i++ {
				v := cacheProbes[(w+i)%len(cacheProbes)]
				e := tc.valEntryFor(v)
				if e.prof == nil || e.prof.Raw != v {
					t.Errorf("valEntry profile mismatch for %q", v)
					return
				}
				if e2 := tc.valEntryFor(v); e2 != e {
					t.Errorf("valEntryFor(%q) returned distinct entries", v)
					return
				}
				c := caps[i%len(caps)]
				n := tc.normEntryFor(e.trimmed, c)
				if n2 := tc.normEntryFor(e.trimmed, c); n2 != n {
					t.Errorf("normEntryFor(%q) returned distinct entries", e.trimmed)
					return
				}
				if !slices.Equal(n.toks, sharedText.normEntryFor(e.trimmed, c).toks) {
					t.Errorf("normEntryFor(%q) differs from the shared cache's", e.trimmed)
					return
				}
				// Exercise the kernels the evidence path runs over the
				// cached entries.
				o := cacheProbes[i%len(cacheProbes)]
				got := attrSimilarityE(tc, e, tc.valEntryFor(o), c, nil)
				want := attrSimilarityE(sharedText, sharedText.valEntryFor(v), sharedText.valEntryFor(o), c, nil)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("attrSimilarityE(%q, %q) = %v, on the shared cache %v", v, o, got, want)
					return
				}
				// Fresh encoders per iteration, so concurrent pretrained-
				// weighter snapshots interleave: one on its own cache, one
				// on the shared cache.
				owned := NewEncoder(EncoderCapacity{HashWidth: 1 << 10, CharGrams: true})
				served := NewEncoder(owned.Capacity())
				served.DropCorpusCache()
				p := record.Pair{
					Left:  record.Record{Values: []string{v, "doc"}},
					Right: record.Record{Values: []string{o, fmt.Sprint(w)}},
				}
				var vecs [2]mlcore.SparseVec
				for k, enc := range []*Encoder{owned, served} {
					enc.ObserveCorpus(fmt.Sprintf("doc %d %d", w, i))
					vecs[k] = enc.Encode(p, record.SerializeOptions{})
				}
				if !sameVec(vecs[0], vecs[1]) {
					t.Errorf("Encode(%q, %q) differs between an owned and the shared cache", v, o)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// sameVec reports whether two sparse vectors hold the same indices and
// the same value bits.
func sameVec(a, b mlcore.SparseVec) bool {
	if !slices.Equal(a.Idx, b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}
