package matchers

import (
	"repro/internal/lm"
	"repro/internal/mlcore"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/stats"
)

// Unicorn implements the unified multi-tasking matcher of Tu et al.
// (SIGMOD 2023): a DeBERTa-class encoder whose representations flow
// through a mixture-of-experts layer into a shared matching head. The
// multi-task design — Unicorn trains on seven matching task families —
// is reproduced by mixing auxiliary matching tasks (attribute-value
// matching, the weak-supervision task family the original generates) into
// the entity-matching fine-tuning data, with the gate free to specialise
// experts per task.
//
// Unicorn is model-aware: the expert layer and matching module are custom
// architecture on top of the encoder, the design choice the paper
// contrasts with model-agnostic approaches in Finding 2.
type Unicorn struct {
	// TrainCap bounds the EM fine-tuning sample.
	TrainCap int
	// AuxCap bounds the auxiliary-task sample mixed into training.
	AuxCap int

	profile lm.Profile
	enc     *lm.Encoder
	model   *moe.Model
}

// NewUnicorn returns Unicorn with the study's instruction-variant
// configuration (DeBERTa base).
func NewUnicorn() *Unicorn {
	return &Unicorn{TrainCap: 5000, AuxCap: 1500, profile: lm.DeBERTa}
}

// Name implements Matcher.
func (m *Unicorn) Name() string { return "Unicorn" }

// ParamsMillions implements Matcher.
func (m *Unicorn) ParamsMillions() float64 { return m.profile.ParamsMillions }

// Train implements Matcher.
func (m *Unicorn) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.enc = lm.NewEncoder(m.profile.Capacity)
	sample := sampleTransfer(transfer, m.TrainCap, rng.Split("unicorn:sample"))
	examples := encodePairs(m.enc, sample, record.SerializeOptions{})

	// Auxiliary multi-task data: weakly labeled attribute-value matching
	// examples derived from the transfer pairs. A positive pair's aligned
	// values are (weak) positives; values from different entities are
	// negatives. This reproduces Unicorn's cross-task training signal.
	arng := rng.Split("unicorn:aux")
	auxCount := 0
	for _, tp := range sample {
		if auxCount >= m.AuxCap {
			break
		}
		p := tp.pair
		n := len(p.Left.Values)
		if len(p.Right.Values) < n {
			n = len(p.Right.Values)
		}
		if n == 0 {
			continue
		}
		i := arng.Intn(n)
		if p.Left.Values[i] == "" || p.Right.Values[i] == "" {
			continue
		}
		label := 0.0
		if p.Match {
			label = 1.0
		}
		x := m.enc.EncodeAttributePair(p.Left.Values[i], p.Right.Values[i])
		examples = append(examples, exampleWithWeight(x, label, 0.5))
		auxCount++
	}

	cfg := moe.DefaultConfig(m.enc.Dim())
	cfg.Epochs = m.profile.Capacity.Epochs
	cfg.LearnRate = m.profile.Capacity.LearnRate
	cfg.Hidden = m.profile.Capacity.Hidden
	m.model = moe.New(cfg, rng.Split("unicorn:init"))
	m.model.Train(examples, rng.Split("unicorn:train"))
}

// Predict implements Matcher.
func (m *Unicorn) Predict(task Task) []bool {
	out := make([]bool, len(task.Pairs))
	m.PredictBatchInto(task, out)
	return out
}

// PredictBatchInto implements BatchPredictor: identical decisions to the
// per-pair loop, with one scratch feature vector reused across the batch.
func (m *Unicorn) PredictBatchInto(task Task, out []bool) {
	st := obs.StartStages(task.Ctx)
	var vec mlcore.SparseVec
	for i, p := range task.Pairs {
		st.Enter("featurise")
		m.enc.EncodeInto(&vec, p, task.Opts)
		st.Enter("classify")
		out[i] = m.model.Prob(vec) >= 0.5
		st.Exit()
	}
	st.SetInt("classify", "pairs", int64(len(task.Pairs)))
	st.End()
}

// PredictConfidence implements ConfidenceScorer: the decision margin is
// the matching model's probability distance from the 0.5 threshold,
// with decisions identical to PredictBatchInto's.
func (m *Unicorn) PredictConfidence(task Task, out []bool, conf []float64) {
	var vec mlcore.SparseVec
	for i, p := range task.Pairs {
		m.enc.EncodeInto(&vec, p, task.Opts)
		pr := m.model.Prob(vec)
		out[i] = pr >= 0.5
		conf[i] = decisionMargin(pr, 0.5)
	}
}
