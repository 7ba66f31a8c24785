package lm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/record"
)

var cacheProbes = []string{
	"", "  ", "Sony WH-1000XM4", "sony wh-1000xm4", "$99.00", "1,234",
	"v1.2.3 firmware", "café au lait", "北京 大学", "released 1994",
	"SKU-83XJ9 black 128GB", "the quick brown fox jumps over the lazy dog",
}

// TestTextCachesConcurrent drives the two-layer value/normalization
// caches and the pretrained-weighter Once from many goroutines at once;
// under -race this pins the double-checked locking in textcache.go and
// the copy-on-observe snapshot handoff in pretrained.go.
func TestTextCachesConcurrent(t *testing.T) {
	caps := []Capabilities{
		{Normalization: 0.2, Semantics: 0.3, Attention: 0.4},
		{Normalization: 0.9, Semantics: 0.7, Attention: 0.6},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v := cacheProbes[(w+i)%len(cacheProbes)]
				e := valEntryFor(v)
				if e.prof == nil || e.prof.Raw != v {
					t.Errorf("valEntry profile mismatch for %q", v)
					return
				}
				if e2 := valEntryFor(v); e2 != e {
					t.Errorf("valEntryFor(%q) returned distinct entries", v)
					return
				}
				c := caps[i%len(caps)]
				n := normEntryFor(e.trimmed, c)
				if n2 := normEntryFor(e.trimmed, c); n2 != n {
					t.Errorf("normEntryFor(%q) returned distinct entries", e.trimmed)
					return
				}
				// Exercise the kernels the evidence path runs over the
				// cached entries, plus a fresh encoder per iteration so
				// concurrent pretrained-weighter snapshots interleave.
				other := valEntryFor(cacheProbes[i%len(cacheProbes)])
				_ = attrSimilarityE(e, other, c, nil)
				enc := NewEncoder(EncoderCapacity{HashWidth: 1 << 10})
				enc.ObserveCorpus(fmt.Sprintf("doc %d %d", w, i))
				_ = enc.Encode(record.Pair{
					Left:  record.Record{Values: []string{v}},
					Right: record.Record{Values: []string{other.prof.Raw}},
				}, record.SerializeOptions{})
			}
		}(w)
	}
	wg.Wait()
}
