package matchers

import (
	"sort"

	"repro/internal/lm"
	"repro/internal/mlcore"
	"repro/internal/obs"
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
func encodePairs(enc *lm.Encoder, pairs []transferPair, opts record.SerializeOptions) []mlcore.Example {
	values := 0
	for _, tp := range pairs {
		values += len(tp.pair.Left.Values) + len(tp.pair.Right.Values)
	}
	enc.ReserveCorpus(2*len(pairs), values)
	for _, tp := range pairs {
		enc.ObserveRecord(tp.pair.Left, opts)
		enc.ObserveRecord(tp.pair.Right, opts)
	}
	out := make([]mlcore.Example, len(pairs))
	for i, tp := range pairs {
		out[i] = mlcore.Example{X: enc.Encode(tp.pair.Pair, opts), Y: tp.pair.Label()}
	}
	return out
}

// appendAttrPairs appends up to limit weakly labeled attribute-value
// examples to examples, each of the given weight: for each pair in turn,
// one aligned attribute drawn with rng, skipped when either value is
// empty, labeled with the pair's label. A match's aligned values are
// (weak) positives, a non-match's are negatives.
func appendAttrPairs(examples []mlcore.Example, enc *lm.Encoder, pairs []transferPair, limit int, weight float64, rng *stats.RNG) []mlcore.Example {
	count := 0
	for _, tp := range pairs {
		if count >= limit {
			break
		}
		p := tp.pair
		n := min(len(p.Left.Values), len(p.Right.Values))
		if n == 0 {
			continue
		}
		i := rng.Intn(n)
		if p.Left.Values[i] == "" || p.Right.Values[i] == "" {
			continue
		}
		x := enc.EncodeAttributePair(p.Left.Values[i], p.Right.Values[i])
		examples = append(examples, mlcore.Example{X: x, Y: p.Label(), Weight: weight})
		count++
	}
	return examples
}

// probHead is a trained prediction head: LogReg, MLP or the
// mixture-of-experts model. Scorer returns its probability function,
// which holds one forward-pass scratch for all the pairs of a batch.
type probHead interface {
	Scorer() func(mlcore.SparseVec) float64
}

// predictHead is the prediction loop of the fine-tuned matchers: each
// pair of task, passed through prep when prep is not nil, is featurised
// by enc and matches when head's probability is at least 0.5. conf, when
// not nil, receives each decision's margin from that threshold. The
// featurise and classify stages are recorded on task's trace.
func predictHead(task Task, enc *lm.Encoder, prep func(record.Pair) record.Pair, head probHead, out []bool, conf []float64) {
	st := obs.StartStages(task.Ctx)
	var vec mlcore.SparseVec
	prob := head.Scorer()
	for i, p := range task.Pairs {
		st.Enter("featurise")
		if prep != nil {
			p = prep(p)
		}
		enc.EncodeInto(&vec, p, task.Opts)
		st.Enter("classify")
		pr := prob(vec)
		out[i] = pr >= 0.5
		if conf != nil {
			conf[i] = decisionMargin(pr, 0.5)
		}
		st.Exit()
	}
	st.SetInt("classify", "pairs", int64(len(task.Pairs)))
	st.End()
}
