package lm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/record"
	"repro/internal/stats"
)

// TestEncoderVectorsPinned pins the exact bits of Encode on a stride
// sample of the benchmark pool, serialised in schema order and under a
// shuffled column order, after the encoder has observed the sample as its
// fine-tuning corpus. BERT is Ditto's capacity; DeBERTa adds the
// character-gram block. A change to profiles, trigram sets, corpus
// observation or the normalised-text caches that moves any index or
// value by one bit changes the digest.
func TestEncoderVectorsPinned(t *testing.T) {
	stride := 16
	if testing.Short() {
		stride = 64
	}
	var sample []record.Pair
	var orders [][]int
	rng := stats.NewRNG(7)
	n := 0
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		order := rng.Perm(len(d.Schema.Names))
		for _, p := range d.Pairs {
			if n++; n%stride != 0 {
				continue
			}
			sample = append(sample, p.Pair)
			orders = append(orders, order)
		}
	}
	want := map[string]map[int]string{
		"BERT": {
			16: "dba0facc345a7a5695d9b2d49966557f32f11351dc63768254d0f00cfb8a12d6",
			64: "810418f30da91b6ac9326c182c4b4b9c5e185e476e32656fe9c6368c406d9742",
		},
		"DeBERTa": {
			16: "a5972dc55c6a90c81a1cc341ed4c6ddda6a1d8941d7c2e4354cb24879e33f9ce",
			64: "dbf366f42723f0e2c80a0731c834cad3872733b551f47a2f18e649441ad3f875",
		},
	}
	for _, prof := range []lm.Profile{lm.BERT, lm.DeBERTa} {
		enc := lm.NewEncoder(prof.Capacity)
		for i, p := range sample {
			shuffled := record.SerializeOptions{ColumnOrder: orders[i]}
			enc.ObserveCorpus(record.SerializeRecord(p.Left, record.SerializeOptions{}))
			enc.ObserveCorpus(record.SerializeRecord(p.Right, shuffled))
		}
		h := sha256.New()
		var buf [8]byte
		for i, p := range sample {
			for _, opts := range []record.SerializeOptions{{}, {ColumnOrder: orders[i]}} {
				v := enc.Encode(p, opts)
				binary.LittleEndian.PutUint64(buf[:], uint64(len(v.Idx)))
				h.Write(buf[:])
				for k := range v.Idx {
					binary.LittleEndian.PutUint64(buf[:], uint64(v.Idx[k]))
					h.Write(buf[:])
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Val[k]))
					h.Write(buf[:])
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if w := want[prof.Name][stride]; got != w {
			t.Errorf("%s encoder over %d pairs (stride %d): digest %s, want %s", prof.Name, len(sample), stride, got, w)
		}
	}
}
