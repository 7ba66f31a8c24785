package matchers

import (
	"strings"
	"unicode"

	"repro/internal/lm"
	"repro/internal/mlcore"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/stats"
)

// Ditto implements the fine-tuned encoder matcher of Li et al. (VLDB
// 2020): a BERT-class encoder with a separate prediction head, fine-tuned
// on serialized pairs. The study's configuration applies Ditto's "data
// augmentation" (dropping columns, deleting token spans) and
// "summarisation" (truncating long values) but omits the domain-knowledge
// injection, which is unavailable in a cross-dataset setting — exactly as
// the paper configures it.
//
// Ditto is model-aware: the prediction head is a custom layer on top of
// the encoder representation (here: a linear head over hashed BERT-scale
// features).
type Ditto struct {
	// TrainCap bounds the fine-tuning sample (the original trains on the
	// benchmark's train splits; the cap keeps runs tractable while
	// preserving the data distribution).
	TrainCap int
	// Augment enables Ditto's data-augmentation operators.
	Augment bool
	// SummarizeAt truncates values longer than this many tokens.
	SummarizeAt int

	profile lm.Profile
	enc     *lm.Encoder
	head    *mlcore.LogReg
}

// NewDitto returns Ditto with the study's configuration (BERT base model,
// augmentation and summarisation on).
func NewDitto() *Ditto {
	return &Ditto{TrainCap: 4000, Augment: true, SummarizeAt: 24, profile: lm.BERT}
}

// SetCapacity overrides the encoder capacity, used by the capacity-sweep
// ablation. Must be called before Train.
func (m *Ditto) SetCapacity(c lm.EncoderCapacity) {
	m.profile.Capacity = c
}

// Name implements Matcher.
func (m *Ditto) Name() string { return "Ditto" }

// ParamsMillions implements Matcher.
func (m *Ditto) ParamsMillions() float64 { return m.profile.ParamsMillions }

// Train implements Matcher: fine-tune the head on the transfer datasets.
func (m *Ditto) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.enc = lm.NewEncoder(m.profile.Capacity)
	sample := sampleTransfer(transfer, m.TrainCap, rng.Split("ditto:sample"))

	// Summarisation: truncate long values before featurisation.
	for i := range sample {
		sample[i].pair.Pair = m.summarize(sample[i].pair.Pair)
	}

	examples := encodePairs(m.enc, sample, record.SerializeOptions{})

	// Data augmentation: each positive example also contributes a
	// perturbed twin (dropped column or deleted token span), teaching the
	// head robustness to partial information.
	if m.Augment {
		arng := rng.Split("ditto:augment")
		var augmented []mlcore.Example
		for _, tp := range sample {
			if !tp.pair.Match || !arng.Bool(0.5) {
				continue
			}
			aug := m.augmentPair(tp.pair.Pair, arng)
			augmented = append(augmented, mlcore.Example{
				X: m.enc.Encode(aug, record.SerializeOptions{}),
				Y: 1,
			})
		}
		examples = append(examples, augmented...)
	}

	cap := m.profile.Capacity
	m.head = mlcore.TrainLogReg(examples, mlcore.LogRegConfig{
		Dim:       m.enc.Dim(),
		Epochs:    cap.Epochs,
		LearnRate: cap.LearnRate,
		L2:        1e-6,
	}, rng.Split("ditto:train"))
}

// Predict implements Matcher.
func (m *Ditto) Predict(task Task) []bool {
	out := make([]bool, len(task.Pairs))
	m.PredictBatchInto(task, out)
	return out
}

// PredictBatchInto implements BatchPredictor: identical decisions to the
// per-pair loop, with one scratch feature vector reused across the batch.
func (m *Ditto) PredictBatchInto(task Task, out []bool) {
	st := obs.StartStages(task.Ctx)
	var vec mlcore.SparseVec
	for i, p := range task.Pairs {
		st.Enter("featurise")
		m.enc.EncodeInto(&vec, m.summarize(p), task.Opts)
		st.Enter("classify")
		out[i] = m.head.Prob(vec) >= 0.5
		st.Exit()
	}
	st.SetInt("classify", "pairs", int64(len(task.Pairs)))
	st.End()
}

// PredictConfidence implements ConfidenceScorer: the decision margin is
// the classification head's probability distance from the 0.5
// threshold, with decisions identical to PredictBatchInto's.
func (m *Ditto) PredictConfidence(task Task, out []bool, conf []float64) {
	var vec mlcore.SparseVec
	for i, p := range task.Pairs {
		m.enc.EncodeInto(&vec, m.summarize(p), task.Opts)
		pr := m.head.Prob(vec)
		out[i] = pr >= 0.5
		conf[i] = decisionMargin(pr, 0.5)
	}
}

// summarize truncates each value to SummarizeAt tokens, Ditto's long-input
// strategy for staying within the encoder's context window. Records whose
// values are all within the budget — the overwhelmingly common case at
// serving time — are returned as-is, with no clone and no tokenisation
// allocations; truncation would not have changed a byte of them.
func (m *Ditto) summarize(p record.Pair) record.Pair {
	if !needsSummarize(p.Left, m.SummarizeAt) && !needsSummarize(p.Right, m.SummarizeAt) {
		return p
	}
	trunc := func(r record.Record) record.Record {
		out := r.Clone()
		for i, v := range out.Values {
			toks := strings.Fields(v)
			if len(toks) > m.SummarizeAt {
				out.Values[i] = strings.Join(toks[:m.SummarizeAt], " ")
			}
		}
		return out
	}
	return record.Pair{Left: trunc(p.Left), Right: trunc(p.Right)}
}

// needsSummarize reports whether any value exceeds max whitespace-split
// tokens, counting fields exactly as strings.Fields does but without
// allocating the slice.
func needsSummarize(r record.Record, max int) bool {
	for _, v := range r.Values {
		if fieldCount(v, max) > max {
			return true
		}
	}
	return false
}

// fieldCount counts strings.Fields fields, stopping once limit+1 fields
// are seen.
func fieldCount(s string, limit int) int {
	n := 0
	inField := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			n++
			inField = true
			if n > limit {
				return n
			}
		}
	}
	return n
}

// augmentPair applies one of Ditto's augmentation operators to a pair.
func (m *Ditto) augmentPair(p record.Pair, rng *stats.RNG) record.Pair {
	left := p.Left.Clone()
	right := p.Right.Clone()
	target := &left
	if rng.Bool(0.5) {
		target = &right
	}
	if rng.Bool(0.5) && len(target.Values) > 1 {
		// Drop a column.
		i := rng.Intn(len(target.Values))
		target.Values[i] = ""
	} else {
		// Delete a token span from a random value.
		i := rng.Intn(len(target.Values))
		toks := strings.Fields(target.Values[i])
		if len(toks) > 2 {
			start := rng.Intn(len(toks) - 1)
			end := start + 1 + rng.Intn(len(toks)-start-1)
			target.Values[i] = strings.Join(append(append([]string{}, toks[:start]...), toks[end:]...), " ")
		}
	}
	return record.Pair{Left: left, Right: right}
}
