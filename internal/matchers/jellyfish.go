package matchers

import (
	"repro/internal/lm"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/stats"
)

// JellyfishSeenDatasets are the six benchmark datasets that the publicly
// released Jellyfish-13B model saw during its multi-task instruction
// tuning. The paper cannot evaluate Jellyfish fairly on these under the
// cross-dataset setting and reports their scores in brackets; the
// reproduction mirrors that by switching Jellyfish to its tuned (seen-data)
// capability level on exactly these targets.
var JellyfishSeenDatasets = map[string]bool{
	"DBAC": true, "DBGO": true, "FOZA": true,
	"AMGO": true, "BEER": true, "ITAM": true,
}

// Jellyfish implements the instruction-tuned data-preprocessing LLM of
// Zhang et al. (2023): a LLaMA2-13B model instruction-tuned on data
// preparation tasks (including entity matching) and prompted with the
// authors' format. It is designed for out-of-domain data preparation, so
// it fits the cross-dataset setting — except on the datasets it was tuned
// on, which are flagged via JellyfishSeenDatasets.
type Jellyfish struct {
	profile lm.Profile
	rng     *stats.RNG
}

// NewJellyfish returns the Jellyfish matcher over the released
// LLaMA2-13B weights.
func NewJellyfish() *Jellyfish {
	return &Jellyfish{profile: lm.LLaMA213B}
}

// Name implements Matcher.
func (m *Jellyfish) Name() string { return "Jellyfish" }

// ParamsMillions implements Matcher.
func (m *Jellyfish) ParamsMillions() float64 { return m.profile.ParamsMillions }

// Train implements Matcher. Jellyfish ships pre-tuned; no transfer
// training happens, the rng seeds decision noise only.
func (m *Jellyfish) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.rng = rng
}

// Predict implements Matcher.
func (m *Jellyfish) Predict(task Task) []bool {
	rng := m.rng
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	profile := m.profile
	if JellyfishSeenDatasets[task.TargetName] {
		// On seen datasets Jellyfish behaves like a fine-tuned model: the
		// instruction tuning covered this exact data, lifting every
		// capability. These scores are reported in brackets.
		profile.Zero = seenBoost(profile.Zero)
	}
	model := lm.NewPromptModel(profile, rng.Split("jellyfish:model"))
	st := obs.StartStages(task.Ctx)
	st.Enter("serialize")
	for _, p := range task.Pairs {
		model.ObserveRecord(p.Left, task.Opts)
		model.ObserveRecord(p.Right, task.Opts)
	}
	st.Enter("prompt")
	out := model.MatchBatch(task.Pairs, task.Opts)
	st.Exit()
	annotatePromptCost(st, m.profile.Name, task)
	st.End()
	return out
}

// seenBoost lifts capabilities to the tuned level for seen datasets. Only
// the capabilities that are monotone in accuracy are lifted: Semantics and
// Attention also scale the evidence model's conflict penalties and
// short-field veto, which are calibrated for Jellyfish's moderate base
// levels — raising them pushes the penalty terms into an over-penalizing
// regime on noisy product data and *lowers* seen-dataset accuracy below
// the unseen baseline.
func seenBoost(c lm.Capabilities) lm.Capabilities {
	lift := func(v, target float64) float64 {
		if target > v {
			return target
		}
		return v
	}
	c.Normalization = lift(c.Normalization, 0.92)
	c.Numeracy = lift(c.Numeracy, 0.82)
	c.Robustness = lift(c.Robustness, 0.80)
	c.Calibration = lift(c.Calibration, 0.85)
	c.DecisionNoise = c.DecisionNoise * 0.6
	return c
}
