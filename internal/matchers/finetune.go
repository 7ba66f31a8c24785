package matchers

import (
	"sort"

	"repro/internal/mlcore"
	"repro/internal/record"
	"repro/internal/stats"
)

// transferPair is one labeled pair from a transfer dataset, tagged with its
// source for dataset-aware selection.
type transferPair struct {
	pair    record.LabeledPair
	dataset string
}

// collectTransfer flattens the transfer datasets into one labeled pool.
func collectTransfer(transfer []*record.Dataset) []transferPair {
	var out []transferPair
	for _, d := range transfer {
		for _, p := range d.Pairs {
			out = append(out, transferPair{pair: p, dataset: d.Name})
		}
	}
	return out
}

// samplePairs draws up to n pairs uniformly without replacement,
// preserving the pool's label distribution.
func samplePairs(pool []transferPair, n int, rng *stats.RNG) []transferPair {
	if len(pool) <= n {
		return pool
	}
	idx := rng.Sample(len(pool), n)
	out := make([]transferPair, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// sampleTransfer is samplePairs(collectTransfer(transfer), n, rng)
// without the flattened pool: it draws the same indices over the
// datasets' concatenation and copies only the chosen pairs.
func sampleTransfer(transfer []*record.Dataset, n int, rng *stats.RNG) []transferPair {
	// starts[k] is the index of transfer[k]'s first pair in the
	// concatenation; the last entry is the total.
	starts := make([]int, len(transfer)+1)
	for k, d := range transfer {
		starts[k+1] = starts[k] + len(d.Pairs)
	}
	if starts[len(transfer)] <= n {
		return collectTransfer(transfer)
	}
	idx := rng.Sample(starts[len(transfer)], n)
	out := make([]transferPair, len(idx))
	for i, j := range idx {
		k := sort.SearchInts(starts, j+1) - 1
		out[i] = transferPair{pair: transfer[k].Pairs[j-starts[k]], dataset: transfer[k].Name}
	}
	return out
}

// balancePairs returns a label-balanced subsample: up to perClass positives
// and the same number of negatives, drawn uniformly. This is AnyMatch's
// label-balancing operation, which the paper identifies as a key
// data-centric step.
func balancePairs(pool []transferPair, perClass int, rng *stats.RNG) []transferPair {
	var pos, neg []int
	for i, tp := range pool {
		if tp.pair.Match {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	take := func(idx []int) []int {
		if len(idx) <= perClass {
			return idx
		}
		sel := rng.Sample(len(idx), perClass)
		out := make([]int, len(sel))
		for i, j := range sel {
			out[i] = idx[j]
		}
		return out
	}
	pos = take(pos)
	// Match the negative count to the positive count to balance exactly.
	limit := perClass
	if len(pos) < limit {
		limit = len(pos)
	}
	negSel := neg
	if len(neg) > limit {
		sel := rng.Sample(len(neg), limit)
		negSel = make([]int, len(sel))
		for i, j := range sel {
			negSel[i] = neg[j]
		}
	} else {
		negSel = neg
	}
	out := make([]transferPair, 0, len(pos)+len(negSel))
	for _, i := range pos {
		out = append(out, pool[i])
	}
	for _, i := range negSel {
		out = append(out, pool[i])
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// encodePairs featurises the pairs with the given encoder, producing
// training examples. The encoder absorbs corpus statistics first so that
// IDF features reflect the fine-tuning corpus, as they would for a model
// fine-tuned on this text.
type pairEncoder interface {
	ObserveCorpus(text string)
	Encode(p record.Pair, opts record.SerializeOptions) mlcore.SparseVec
}

// exampleWithWeight builds an importance-weighted training example.
func exampleWithWeight(x mlcore.SparseVec, y, weight float64) mlcore.Example {
	return mlcore.Example{X: x, Y: y, Weight: weight}
}

func encodePairs(enc pairEncoder, pairs []transferPair, opts record.SerializeOptions) []mlcore.Example {
	for _, tp := range pairs {
		enc.ObserveCorpus(record.SerializeRecord(tp.pair.Left, opts))
		enc.ObserveCorpus(record.SerializeRecord(tp.pair.Right, opts))
	}
	out := make([]mlcore.Example, len(pairs))
	for i, tp := range pairs {
		out[i] = mlcore.Example{X: enc.Encode(tp.pair.Pair, opts), Y: tp.pair.Label()}
	}
	return out
}
