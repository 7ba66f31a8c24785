package textsim_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// poolPairs returns every labelled pair of the 11 benchmark datasets with
// one shuffled column order per dataset (seed 7).
var poolPairs = sync.OnceValues(func() (pairs []record.Pair, orders [][]int) {
	rng := stats.NewRNG(7)
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		order := rng.Perm(len(d.Schema.Names))
		for _, p := range d.Pairs {
			pairs = append(pairs, p.Pair)
			orders = append(orders, order)
		}
	}
	return pairs, orders
})

// hashJoinQGram is the q-gram Jaccard kernel as a merge join over each
// set's ascending FNV-1a gram hashes: the reference the code-order join
// is held to.
func hashJoinQGram(a, b *textsim.Profile) float64 {
	hashes := func(p *textsim.Profile) []uint64 {
		hs := make([]uint64, p.NumGrams())
		for i := range hs {
			hs[i] = textsim.TokenHash(p.Gram(i))
		}
		slices.Sort(hs)
		return hs
	}
	ha, hb := hashes(a), hashes(b)
	na, nb := len(ha), len(hb)
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < na && j < nb {
		switch {
		case ha[i] < hb[j]:
			i++
		case ha[i] > hb[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(na+nb-inter)
}

// TestQGramJaccardMatchesHashJoin holds QGramJaccardP to the FNV-1a hash
// join bit for bit on every pool pair's serialised records, in schema
// order and in one shuffled column order, and on every aligned pair of
// attribute values. -short takes every eighth pair.
func TestQGramJaccardMatchesHashJoin(t *testing.T) {
	pairs, orders := poolPairs()
	stride := 1
	if testing.Short() {
		stride = 8
	}
	check := func(a, b string) {
		pa, pb := textsim.NewProfileCache().Get(a), textsim.NewProfileCache().Get(b)
		want := math.Float64bits(hashJoinQGram(pa, pb))
		if got := math.Float64bits(textsim.QGramJaccardP(pa, pb)); got != want {
			t.Fatalf("QGramJaccardP(%q, %q) = %x, hash join %x", a, b, got, want)
		}
	}
	for i := 0; i < len(pairs); i += stride {
		p := pairs[i]
		for _, opts := range []record.SerializeOptions{{}, {ColumnOrder: orders[i]}} {
			check(record.SerializeRecord(p.Left, opts), record.SerializeRecord(p.Right, opts))
		}
		for k := range min(len(p.Left.Values), len(p.Right.Values)) {
			check(p.Left.Values[k], p.Right.Values[k])
		}
	}
}

// TestJaroWinklerSymmetric checks JaroWinkler(x, y) == JaroWinkler(y, x)
// bit for bit for every token pair the encoder's Monge-Elkan feature
// scores: the first eight tokens of each side of every pool pair.
func TestJaroWinklerSymmetric(t *testing.T) {
	pairs, _ := poolPairs()
	stride := 1
	if testing.Short() {
		stride = 8
	}
	first8 := func(r record.Record) []string {
		toks := textsim.Tokens(record.SerializeRecord(r, record.SerializeOptions{}))
		return toks[:min(8, len(toks))]
	}
	for i := 0; i < len(pairs); i += stride {
		ta, tb := first8(pairs[i].Left), first8(pairs[i].Right)
		for _, x := range ta {
			for _, y := range tb {
				if a, b := textsim.JaroWinkler(x, y), textsim.JaroWinkler(y, x); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("JaroWinkler(%q, %q) = %v but JaroWinkler(%q, %q) = %v", x, y, a, y, x, b)
				}
			}
		}
	}
}
