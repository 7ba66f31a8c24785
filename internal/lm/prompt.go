package lm

import (
	"math"
	"sort"

	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// DemoStrategy selects which in-context demonstrations a prompted model
// receives (Table 4 of the paper).
type DemoStrategy int

// Demonstration strategies.
const (
	// DemoNone prompts without examples (the main Table 3 configuration).
	DemoNone DemoStrategy = iota
	// DemoHandPicked uses three manually selected examples (two negative,
	// one positive) from the transfer datasets.
	DemoHandPicked
	// DemoRandom uses three randomly selected examples from the transfer
	// datasets.
	DemoRandom
)

// String returns the strategy name as used in Table 4.
func (s DemoStrategy) String() string {
	switch s {
	case DemoNone:
		return "none"
	case DemoHandPicked:
		return "hand-picked"
	case DemoRandom:
		return "random-selected"
	default:
		return "unknown"
	}
}

// Demo is one in-context demonstration: a labeled pair from a transfer
// dataset, plus the name of the dataset it came from (demos in the
// cross-dataset setting are always out-of-distribution for the target).
type Demo struct {
	Pair    record.LabeledPair
	Dataset string
}

// PromptModel is the zero-shot matching engine simulating a prompted LLM.
// It maintains corpus-wide token-rarity knowledge (the stand-in for
// pretraining exposure) and scores pairs through capability-gated evidence
// extraction. It is not safe for concurrent use; the evaluation harness
// creates one engine per (model, dataset, seed) run, as each API session
// would be.
type PromptModel struct {
	profile  Profile
	idf      *textsim.Weighter
	demos    []Demo
	rng      *stats.RNG
	ablation AblationFlags
}

// AblationFlags switch off individual evidence mechanisms of the zero-shot
// engine, for the ablation study on where prompted-matcher quality comes
// from.
type AblationFlags struct {
	// NoIdentifierSignals drops the identifier match/conflict and
	// version/year/contrast signals (pure similarity scoring).
	NoIdentifierSignals bool
	// NoVeto drops the short-field veto.
	NoVeto bool
	// NoAdaptiveThreshold forces the fixed prior threshold (no batch
	// calibration).
	NoAdaptiveThreshold bool
}

// SetAblation installs ablation switches; the zero value restores the full
// engine.
func (m *PromptModel) SetAblation(f AblationFlags) { m.ablation = f }

// NewPromptModel returns a zero-shot engine for the given profile. The rng
// drives decision noise and must be seeded per experimental repetition.
func NewPromptModel(p Profile, rng *stats.RNG) *PromptModel {
	return &PromptModel{
		profile: p,
		idf:     pretrainedWeighter(),
		rng:     rng,
	}
}

// SetDemos installs in-context demonstrations. The engine reads what the
// demonstrations contain, their pairs and source datasets, never the
// strategy that selected them: they pull the decision threshold toward
// their own evidence scores (demoThreshold) and add DemoNoise each. Pass
// nil to prompt without demonstrations.
func (m *PromptModel) SetDemos(demos []Demo) {
	m.demos = demos
}

// ObserveCorpus lets the engine absorb token statistics from text, the way
// a deployed matcher sees the candidate set it scores in batch. Evidence
// weighting improves as rare tokens become identifiable.
func (m *PromptModel) ObserveCorpus(text string) {
	m.idf.Observe(text)
}

// ObserveRecord is ObserveCorpus(record.SerializeRecord(r, opts)),
// counted from the profiles of r's values in the shared cache, which
// scoring the pair resolves next, instead of tokenising the serialisation
// (when composes(opts)).
func (m *PromptModel) ObserveRecord(r record.Record, opts record.SerializeOptions) {
	if !composes(opts) {
		m.idf.Observe(record.SerializeRecord(r, opts))
		return
	}
	var valStack [16]string
	var stack [16]*textsim.Profile
	parts := stack[:0]
	for _, v := range record.AppendOrdered(valStack[:0], r, opts) {
		parts = append(parts, sharedText.valEntryFor(v).prof)
	}
	m.idf.ObserveJoined(parts)
}

// rawScore computes the pre-threshold evidence score for a pair in [0, 1].
func (m *PromptModel) rawScore(p record.Pair) float64 {
	caps := m.profile.Zero
	sc := evidencePool.Get().(*evidenceScratch)
	defer evidencePool.Put(sc)
	ev := extractEvidenceInto(sc, sharedText, p, caps, m.idf)
	s := ev.Score
	if !m.ablation.NoIdentifierSignals {
		s += 0.25 * ev.IdentifierMatch * caps.Attention
		s -= 0.40 * ev.Conflict * caps.Attention
		s -= 0.30 * ev.ContrastConflict * caps.Semantics
		s -= 0.30 * ev.YearConflict * caps.Numeracy
		s -= 0.35 * ev.VersionConflict * caps.Numeracy
		s += 0.10 * ev.VersionMatch * caps.Numeracy
	}
	// Short-field veto: a careful reader rejects a pair whose name/title
	// clearly disagrees regardless of how well the long fields align — but
	// a shared hard identifier (same phone, same model number) overrides
	// the apparent disagreement.
	if !m.ablation.NoVeto && ev.MinShortSim < 0.45 {
		s -= 0.8 * (0.45 - ev.MinShortSim) * caps.Attention * (1 - 0.7*ev.IdentifierMatch)
	}
	return stats.Clamp(s, 0, 1)
}

// Evidence exposes the full evidence breakdown for one pair, for
// calibration analysis and the explainability example.
func (m *PromptModel) Evidence(p record.Pair) Evidence {
	return extractEvidence(sharedText, p, m.profile.Zero, m.idf)
}

// RawScores returns the pre-threshold evidence scores for the pairs,
// exposed for calibration analysis and the ablation benchmarks.
func (m *PromptModel) RawScores(pairs []record.Pair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = m.rawScore(p)
	}
	return out
}

// MatchBatch classifies a batch of pairs. Batch scoring is how the study
// deploys prompted matchers (candidate sets are processed in bulk), and it
// is where calibration capability matters: a well-calibrated model places
// its Yes/No boundary where the task's score distribution actually splits,
// while a poorly calibrated one applies a generic prior threshold.
func (m *PromptModel) MatchBatch(pairs []record.Pair, opts record.SerializeOptions) []bool {
	scores := make([]float64, len(pairs))
	for i, p := range pairs {
		scores[i] = m.rawScore(p)
	}
	caps := m.profile.Zero

	// Decision threshold: interpolate between a generic prior boundary and
	// the batch-adaptive split by calibration capability. Poorly
	// calibrated models place their generic boundary too low — they answer
	// "Yes" too readily, the precision collapse the paper observes for
	// GPT-3.5 on skewed datasets.
	fixed := 0.52 - 0.14*(1-caps.Calibration)
	adaptive := adaptiveThreshold(scores)
	threshold := (1-caps.Calibration)*fixed + caps.Calibration*adaptive
	if m.ablation.NoAdaptiveThreshold {
		threshold = fixed
	}
	threshold = m.demoThreshold(threshold)

	out := make([]bool, len(pairs))
	noise := m.decisionNoise()
	for i, p := range pairs {
		logit := 9 * (scores[i] - threshold)
		// Serialization sensitivity: column order perturbs the decision.
		logit += m.serializationJitter(p, opts) * (1 - caps.Normalization)
		logit += m.rng.Norm() * noise
		out[i] = logit >= 0
	}
	return out
}

// MatchBatchRAG classifies pairs with retrieval-augmented, per-pair
// demonstrations (the RAG direction the paper's §5.1 leaves to future
// work). Unlike fixed demonstrations, retrieved examples are relevant to
// the query pair, so their in-context effect is proportional to their
// relevance and beneficial even for models that fixed out-of-distribution
// demos confuse: a relevant worked example calibrates rather than
// distracts.
func (m *PromptModel) MatchBatchRAG(pairs []record.Pair, opts record.SerializeOptions, demosFor func(i int) []RetrievedDemo) []bool {
	scores := make([]float64, len(pairs))
	for i, p := range pairs {
		scores[i] = m.rawScore(p)
	}
	caps := m.profile.Zero
	fixed := 0.52 - 0.14*(1-caps.Calibration)
	threshold := (1-caps.Calibration)*fixed + caps.Calibration*adaptiveThreshold(scores)

	out := make([]bool, len(pairs))
	for i, p := range pairs {
		logit := 9 * (scores[i] - threshold)
		logit += m.serializationJitter(p, opts) * (1 - caps.Normalization)
		demos := demosFor(i)
		for _, d := range demos {
			// Relevant demos nudge the decision toward their label with
			// strength proportional to relevance; the per-model demo gain
			// magnitude scales how much in-context evidence moves the
			// model at all.
			direction := -1.0
			if d.Demo.Pair.Match == (scores[i] >= threshold) {
				direction = 1.0
			}
			gain := 0.05 + absFloat(caps.DemoGain)
			logit += direction * gain * d.Relevance * 3
		}
		noise := caps.DecisionNoise + float64(len(demos))*caps.DemoNoise*0.4
		logit += m.rng.Norm() * noise
		out[i] = logit >= 0
	}
	return out
}

// RetrievedDemo is a demonstration with its retrieval relevance in [0,1].
type RetrievedDemo struct {
	Demo      Demo
	Relevance float64
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// MatchProb scores a single pair against the generic prior threshold (no
// batch context available — the "match one pair in isolation" mode that
// ZeroER, by contrast, cannot do at all).
func (m *PromptModel) MatchProb(p record.Pair, opts record.SerializeOptions) float64 {
	caps := m.profile.Zero
	logit := 9 * (m.rawScore(p) - m.demoThreshold(0.52))
	logit += m.serializationJitter(p, opts) * (1 - caps.Normalization)
	logit += m.rng.Norm() * m.decisionNoise()
	return sigmoid(logit)
}

// Match returns the isolated binary decision for a pair.
func (m *PromptModel) Match(p record.Pair, opts record.SerializeOptions) bool {
	return m.MatchProb(p, opts) >= 0.5
}

// adaptiveThreshold places the decision boundary from the batch's score
// distribution alone: a two-means split locates the low (non-match) and
// high (match) score centres, and the boundary sits closer to the match
// centre — entity-matching candidate sets are dominated by non-matches, so
// a calibrated reader demands scores near the match mode before answering
// Yes.
func adaptiveThreshold(scores []float64) float64 {
	if len(scores) == 0 {
		return 0.5
	}
	// 1-D two-means with deterministic extremal initialisation.
	lo, hi := scores[0], scores[0]
	for _, s := range scores[1:] {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi-lo < 1e-9 {
		return lo + 0.01
	}
	cLow, cHigh := lo, hi
	for iter := 0; iter < 30; iter++ {
		var sumL, sumH float64
		var nL, nH int
		mid := (cLow + cHigh) / 2
		for _, s := range scores {
			if s < mid {
				sumL += s
				nL++
			} else {
				sumH += s
				nH++
			}
		}
		if nL == 0 || nH == 0 {
			break
		}
		newLow, newHigh := sumL/float64(nL), sumH/float64(nH)
		if math.Abs(newLow-cLow) < 1e-9 && math.Abs(newHigh-cHigh) < 1e-9 {
			break
		}
		cLow, cHigh = newLow, newHigh
	}
	// Interpret scores as calibrated match probabilities (sharpened around
	// the midpoint of the two cluster centres) and place the boundary
	// where the *expected* F1 of the resulting decisions is maximal — the
	// label-free decision rule of a reader who believes its own
	// confidence estimates.
	return expectedF1Threshold(scores, (cLow+cHigh)/2)
}

// expectedF1Threshold returns the cut that maximises expected F1 when each
// score s is believed to be a match with probability
// sigmoid(12*(s-center) - 1.2); the negative offset encodes the prior that
// matches are rare in entity-matching candidate sets.
func expectedF1Threshold(scores []float64, center float64) float64 {
	sorted := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	total := 0.0
	probs := make([]float64, len(sorted))
	for i, s := range sorted {
		probs[i] = sigmoid(12*(s-center) - 1.2)
		total += probs[i]
	}
	bestK, bestF1 := 0, 0.0
	tp := 0.0
	for k := 1; k <= len(sorted); k++ {
		tp += probs[k-1]
		fp := float64(k) - tp
		fn := total - tp
		f1 := 2 * tp / (2*tp + fp + fn)
		if f1 > bestF1 {
			bestF1 = f1
			bestK = k
		}
	}
	if bestK == 0 {
		return center
	}
	if bestK >= len(sorted) {
		return sorted[len(sorted)-1] - 1e-6
	}
	return (sorted[bestK-1] + sorted[bestK]) / 2
}

// demoThreshold moves a decision threshold toward the demonstrations
// (Table 4). The model reads its demonstrations as examples of the task
// and re-centres its Yes/No boundary on them: it moves the threshold
// toward the demonstrations' mean evidence score, on its own scale. How
// far it moves is |DemoGain| per demonstration that shares the largest
// source dataset, capped at the whole way. Demonstrations from one source
// read as one task's examples and pull together; demonstrations from
// several sources each speak for a different task, and only the largest
// group pulls.
//
// Out of distribution the boundary is miscalibrated toward the source. A
// set that pairs an obvious match with unrelated non-matches centres low,
// so the model says Yes to target pairs that merely look alike and loses
// precision. A set whose non-matches are near-duplicates centres high, so
// the model turns down true matches and loses recall. Whether a model
// gains or loses follows from where its own boundary sat. Without
// demonstrations the threshold is returned unchanged.
func (m *PromptModel) demoThreshold(threshold float64) float64 {
	if len(m.demos) == 0 {
		return threshold
	}
	var sum float64
	largest := 0
	for i, d := range m.demos {
		sum += m.rawScore(d.Pair.Pair)
		same := 0
		for _, e := range m.demos[i:] {
			if e.Dataset == d.Dataset {
				same++
			}
		}
		largest = max(largest, same)
	}
	anchor := sum / float64(len(m.demos))
	pull := math.Min(1, absFloat(m.profile.Zero.DemoGain)*float64(largest))
	return threshold + pull*(anchor-threshold)
}

// decisionNoise is the standard deviation of the logit noise: the model's
// own DecisionNoise plus DemoNoise per demonstration.
func (m *PromptModel) decisionNoise() float64 {
	caps := m.profile.Zero
	return caps.DecisionNoise + float64(len(m.demos))*caps.DemoNoise
}

// serializationJitter derives a deterministic pseudo-noise value from the
// pair content and the column order, modelling input-order sensitivity.
func (m *PromptModel) serializationJitter(p record.Pair, opts record.SerializeOptions) float64 {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(p.Left.ID)
	mix(p.Right.ID)
	for _, c := range opts.ColumnOrder {
		h ^= uint64(c) + 0x9e3779b97f4a7c15
		h *= 1099511628211
	}
	// Map to a symmetric value in [-0.5, 0.5].
	return float64(h>>11)/(1<<53) - 0.5
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	z := math.Exp(x)
	return z / (1 + z)
}
