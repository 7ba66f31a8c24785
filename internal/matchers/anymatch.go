package matchers

import (
	"fmt"

	"repro/internal/boost"
	"repro/internal/lm"
	"repro/internal/mlcore"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// AnyMatch implements the model-agnostic, data-centric matcher of Zhang et
// al. (2024). AnyMatch leaves the base model untouched and invests in the
// fine-tuning data instead:
//
//   - label balancing, so matches and non-matches are equally represented;
//   - boosting-based difficult-example selection: a cheap gradient-boosted
//     model over similarity features flags the pairs it gets wrong, and
//     those hard examples are prioritised in the fine-tuning sample;
//   - optional attribute-level augmentation with weakly labeled
//     attribute-value pairs.
//
// Three base models are studied: GPT-2, T5, and — the paper's own
// extension — LLaMA 3.2 (1.3B). Per the paper's configuration, the
// LLaMA 3.2 variant disables boosting selection and attribute
// augmentation but keeps label balancing, and uses a lower learning rate.
type AnyMatch struct {
	// PerClass bounds the balanced sample per label class.
	PerClass int
	// UseBoostSelection enables difficult-example mining.
	UseBoostSelection bool
	// UseAttrAugment enables attribute-pair augmentation.
	UseAttrAugment bool
	// DisableBalancing switches off label balancing (ablation only): the
	// fine-tuning sample then preserves the raw label skew.
	DisableBalancing bool

	profile lm.Profile
	enc     *lm.Encoder
	head    *mlcore.MLP
}

// NewAnyMatchGPT2 returns the GPT-2 variant with the full data-centric
// pipeline.
func NewAnyMatchGPT2() *AnyMatch {
	return &AnyMatch{PerClass: 2500, UseBoostSelection: true, UseAttrAugment: true, profile: lm.GPT2}
}

// NewAnyMatchT5 returns the T5 variant with the full data-centric
// pipeline.
func NewAnyMatchT5() *AnyMatch {
	return &AnyMatch{PerClass: 2500, UseBoostSelection: true, UseAttrAugment: true, profile: lm.T5}
}

// NewAnyMatchLLaMA returns the LLaMA 3.2 variant: balancing only, no
// boosting or augmentation, per the paper's configuration.
func NewAnyMatchLLaMA() *AnyMatch {
	return &AnyMatch{PerClass: 3000, profile: lm.LLaMA32}
}

// Name implements Matcher.
func (m *AnyMatch) Name() string { return fmt.Sprintf("AnyMatch [%s]", m.profile.Name) }

// ParamsMillions implements Matcher.
func (m *AnyMatch) ParamsMillions() float64 { return m.profile.ParamsMillions }

// Train implements Matcher.
func (m *AnyMatch) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.enc = lm.NewEncoder(m.profile.Capacity)
	pool := collectTransfer(transfer)

	// Label balancing (the data-centric step the ablation can disable).
	var balanced []transferPair
	if m.DisableBalancing {
		balanced = samplePairs(pool, 2*m.PerClass, rng.Split("anymatch:balance"))
	} else {
		balanced = balancePairs(pool, m.PerClass, rng.Split("anymatch:balance"))
	}

	// Difficult-example selection: score the pool with a boosted model on
	// cheap similarity features; examples it misclassifies join the
	// fine-tuning sample with doubled weight.
	var examples []mlcore.Example
	if m.UseBoostSelection {
		hard := m.selectHard(pool, rng.Split("anymatch:boost"))
		examples = encodePairs(m.enc, balanced, record.SerializeOptions{})
		for _, i := range hard {
			tp := pool[i]
			m.enc.ObserveCorpus(record.SerializeRecord(tp.pair.Left, record.SerializeOptions{}))
			x := m.enc.Encode(tp.pair.Pair, record.SerializeOptions{})
			examples = append(examples, mlcore.Example{X: x, Y: tp.pair.Label(), Weight: 2.0})
		}
	} else {
		examples = encodePairs(m.enc, balanced, record.SerializeOptions{})
	}

	// Attribute-level augmentation: weakly labeled aligned-value pairs.
	if m.UseAttrAugment {
		examples = appendAttrPairs(examples, m.enc, balanced, m.PerClass/2, 0.4, rng.Split("anymatch:attr"))
	}
	// The corpus is encoded: its text cache goes with the training pass.
	m.enc.DropCorpusCache()

	cap := m.profile.Capacity
	hidden := cap.Hidden
	if hidden <= 0 {
		hidden = 8
	}
	m.head = mlcore.NewMLP(mlcore.MLPConfig{
		Dim:       m.enc.Dim(),
		Hidden:    hidden,
		Epochs:    cap.Epochs,
		LearnRate: cap.LearnRate,
		L2:        1e-6,
	}, rng.Split("anymatch:init"))
	m.head.Train(examples, rng.Split("anymatch:train"))
}

// Predict implements Matcher.
func (m *AnyMatch) Predict(task Task) []bool {
	out := make([]bool, len(task.Pairs))
	m.PredictBatchInto(task, out)
	return out
}

// PredictBatchInto implements BatchPredictor: identical decisions to the
// per-pair loop, with one scratch feature vector reused across the batch.
func (m *AnyMatch) PredictBatchInto(task Task, out []bool) {
	predictHead(task, m.enc, nil, m.head, out, nil)
}

// PredictConfidence implements ConfidenceScorer: the decision margin is
// the MLP head's probability distance from the 0.5 threshold, with
// decisions identical to PredictBatchInto's.
func (m *AnyMatch) PredictConfidence(task Task, out []bool, conf []float64) {
	predictHead(task, m.enc, nil, m.head, out, conf)
}

// selectHard trains a booster on cheap similarity features over a slice of
// the pool and returns the indices of misclassified (difficult) examples,
// capped at PerClass.
func (m *AnyMatch) selectHard(pool []transferPair, rng *stats.RNG) []int {
	sample := rng.Sample(len(pool), min(len(pool), 4000))
	xs := make([][]float64, len(sample))
	ys := make([]float64, len(sample))
	for i, j := range sample {
		xs[i] = cheapFeatures(m.enc.Profile, pool[j].pair.Pair)
		ys[i] = pool[j].pair.Label()
	}
	b := boost.Train(xs, ys, boost.DefaultConfig())
	var hard []int
	for i, j := range sample {
		p := b.Prob(xs[i])
		if (p >= 0.5) != (ys[i] >= 0.5) {
			hard = append(hard, j)
		}
		if len(hard) >= m.PerClass {
			break
		}
	}
	return hard
}

// cheapFeatures computes the similarity features the boosting selector
// uses: fast, schema-free aggregates of the serialized records. profile
// resolves a text's profile: AnyMatch's training encoder, so its corpus
// stays in the training pass's cache, or the shared cache.
func cheapFeatures(profile func(string) *textsim.Profile, p record.Pair) []float64 {
	left := record.SerializeRecord(p.Left, record.SerializeOptions{})
	right := record.SerializeRecord(p.Right, record.SerializeOptions{})
	pl, pr := profile(left), profile(right)
	return []float64{
		textsim.TokenJaccardP(pl, pr),
		textsim.QGramJaccardP(pl, pr),
		textsim.TokenOverlapP(pl, pr),
		float64(len(left)+len(right)) / 200,
	}
}
