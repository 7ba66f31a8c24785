package lm

import (
	"sync"
	"testing"

	"repro/internal/mlcore"
	"repro/internal/record"
)

// TestSharedEncoderConcurrentFirstUse scores pairs no cache has seen from
// several goroutines through one trained encoder, as serving workers
// share one: record and value derivations, gram sets and the IDF table
// are all built on first use by whichever worker gets there first. Each
// worker's vectors must equal those of an encoder that observed the same
// corpus and encoded alone. Under -race this checks the publication of
// every first-use derivation.
func TestSharedEncoderConcurrentFirstUse(t *testing.T) {
	var corpus, fresh []record.Pair
	for _, d := range benchmarkPool() {
		if d.Name != "WAAM" && d.Name != "DBGO" {
			continue
		}
		for i, p := range d.Pairs[:240] {
			if i%2 == 0 {
				corpus = append(corpus, p.Pair)
			} else {
				fresh = append(fresh, p.Pair)
			}
		}
	}
	build := func() *Encoder {
		enc := NewEncoder(DeBERTa.Capacity)
		for _, p := range corpus {
			enc.ObserveRecord(p.Left, record.SerializeOptions{})
			enc.ObserveRecord(p.Right, record.SerializeOptions{})
		}
		return enc
	}
	ref := build()
	shuffled := record.SerializeOptions{ColumnOrder: []int{2, 0, 1, 3}}
	want := make([][2]mlcore.SparseVec, len(fresh))
	for i, p := range fresh {
		want[i] = [2]mlcore.SparseVec{ref.Encode(p, record.SerializeOptions{}), ref.Encode(p, shuffled)}
	}
	served := build()
	served.DropCorpusCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var vec mlcore.SparseVec
			for k := range fresh {
				i := (k + w*len(fresh)/4) % len(fresh)
				for j, opts := range []record.SerializeOptions{{}, shuffled} {
					served.EncodeInto(&vec, fresh[i], opts)
					if !sameVec(vec, want[i][j]) {
						t.Errorf("worker %d: pair %d (order %d) differs from the encoder that scored alone", w, i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
