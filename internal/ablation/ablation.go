// Package ablation implements the design-choice ablation studies called
// out in DESIGN.md: which parts of AnyMatch's data-centric pipeline, the
// zero-shot evidence engine, and the encoder capacity actually buy the
// quality the main tables report. Each ablation evaluates variants under
// the same leave-one-dataset-out protocol as Table 3 (at reduced seed
// count — ablations are about deltas, not absolute precision).
package ablation

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/stats"
)

// Variant is one ablation configuration with its macro-mean result.
type Variant struct {
	Name string
	// Mean is the macro-averaged F1 across the evaluated targets.
	Mean float64
	// PerTarget holds the per-dataset means.
	PerTarget map[string]float64
}

// Study is a named collection of variant results.
type Study struct {
	Name     string
	Baseline string // the full-system variant name
	Variants []Variant
}

// evaluate runs a factory over the given targets and aggregates. The
// (target, seed) cells fan out across the harness's workers; results are
// identical to a sequential target loop.
func evaluate(h *eval.Harness, factory eval.MatcherFactory, targets []string) (Variant, error) {
	v := Variant{PerTarget: make(map[string]float64)}
	results, err := h.EvaluateTargets(factory, targets)
	if err != nil {
		return v, err
	}
	sum := 0.0
	for _, res := range results {
		v.PerTarget[res.Target] = res.Mean()
		sum += res.Mean()
	}
	if len(targets) > 0 {
		v.Mean = sum / float64(len(targets))
	}
	return v, nil
}

// AnyMatchPipeline ablates the data-centric fine-tuning pipeline: the
// full configuration versus dropping label balancing, hard-example
// boosting, or attribute augmentation — the paper's central
// "data-centric beats model-centric" claim made measurable.
func AnyMatchPipeline(h *eval.Harness, targets []string) (*Study, error) {
	configs := []struct {
		name  string
		build func() matchers.Matcher
	}{
		{"full pipeline", func() matchers.Matcher { return matchers.NewAnyMatchGPT2() }},
		{"no hard-example boosting", func() matchers.Matcher {
			m := matchers.NewAnyMatchGPT2()
			m.UseBoostSelection = false
			return m
		}},
		{"no attribute augmentation", func() matchers.Matcher {
			m := matchers.NewAnyMatchGPT2()
			m.UseAttrAugment = false
			return m
		}},
		{"no label balancing (raw sample)", func() matchers.Matcher {
			m := matchers.NewAnyMatchGPT2()
			m.DisableBalancing = true
			return m
		}},
	}
	study := &Study{Name: "AnyMatch data-centric pipeline", Baseline: "full pipeline"}
	for _, cfg := range configs {
		build := cfg.build
		v, err := evaluate(h, func() matchers.Matcher { return build() }, targets)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", cfg.name, err)
		}
		v.Name = cfg.name
		study.Variants = append(study.Variants, v)
	}
	return study, nil
}

// ablatedMatchGPT wraps MatchGPT with engine ablation flags.
type ablatedMatchGPT struct {
	profile lm.Profile
	flags   lm.AblationFlags
	rng     *stats.RNG
}

func (m *ablatedMatchGPT) Name() string            { return "MatchGPT(ablated)" }
func (m *ablatedMatchGPT) ParamsMillions() float64 { return m.profile.ParamsMillions }
func (m *ablatedMatchGPT) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.rng = rng
}
func (m *ablatedMatchGPT) Predict(task matchers.Task) []bool {
	rng := m.rng
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	model := lm.NewPromptModel(m.profile, rng.Split("ablated"))
	model.SetAblation(m.flags)
	for _, p := range task.Pairs {
		model.ObserveCorpus(record.SerializeRecord(p.Left, task.Opts))
		model.ObserveCorpus(record.SerializeRecord(p.Right, task.Opts))
	}
	return model.MatchBatch(task.Pairs, task.Opts)
}

// PromptEngine ablates the zero-shot evidence mechanisms on GPT-4: the
// full engine versus dropping identifier/version/year signals, the
// short-field veto, or batch-adaptive calibration.
func PromptEngine(h *eval.Harness, targets []string) (*Study, error) {
	configs := []struct {
		name  string
		flags lm.AblationFlags
	}{
		{"full engine", lm.AblationFlags{}},
		{"no identifier/version signals", lm.AblationFlags{NoIdentifierSignals: true}},
		{"no short-field veto", lm.AblationFlags{NoVeto: true}},
		{"no adaptive threshold", lm.AblationFlags{NoAdaptiveThreshold: true}},
		{"similarity only", lm.AblationFlags{NoIdentifierSignals: true, NoVeto: true, NoAdaptiveThreshold: true}},
	}
	study := &Study{Name: "Zero-shot evidence engine (GPT-4)", Baseline: "full engine"}
	for _, cfg := range configs {
		flags := cfg.flags
		v, err := evaluate(h, func() matchers.Matcher {
			return &ablatedMatchGPT{profile: lm.GPT4, flags: flags}
		}, targets)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", cfg.name, err)
		}
		v.Name = cfg.name
		study.Variants = append(study.Variants, v)
	}
	return study, nil
}

// EncoderCapacity sweeps the fine-tuning encoder's scale knobs on the
// Ditto skeleton: the mechanism behind Figure 4's size-quality slope for
// fine-tuned models.
func EncoderCapacity(h *eval.Harness, targets []string) (*Study, error) {
	configs := []struct {
		name        string
		pretraining float64
		hashBits    int
	}{
		{"tiny (p=0.15, 2^12)", 0.15, 12},
		{"base (p=0.35, 2^14)", 0.35, 14},
		{"large (p=0.60, 2^15)", 0.60, 15},
		{"xl (p=0.90, 2^17)", 0.90, 17},
	}
	study := &Study{Name: "Encoder capacity sweep (Ditto skeleton)", Baseline: "base (p=0.35, 2^14)"}
	for _, cfg := range configs {
		cfg := cfg
		v, err := evaluate(h, func() matchers.Matcher {
			m := matchers.NewDitto()
			m.SetCapacity(lm.EncoderCapacity{
				HashWidth: 1 << cfg.hashBits, CharGrams: cfg.hashBits >= 15,
				Epochs: 3, LearnRate: 0.02, Pretraining: cfg.pretraining,
			})
			return m
		}, targets)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", cfg.name, err)
		}
		v.Name = cfg.name
		study.Variants = append(study.Variants, v)
	}
	return study, nil
}

// Render formats a study as a text table.
func (s *Study) Render() string {
	out := s.Name + "\n"
	for _, v := range s.Variants {
		marker := " "
		if v.Name == s.Baseline {
			marker = "*"
		}
		out += fmt.Sprintf("  %s %-34s mean F1 %5.1f  (Δ %+.1f)\n", marker, v.Name, v.Mean, v.Mean-mustBase(s))
	}
	return out
}

func mustBase(s *Study) float64 {
	for _, v := range s.Variants {
		if v.Name == s.Baseline {
			return v.Mean
		}
	}
	return 0
}

// DefaultTargets is the dataset subset used for ablations: one per major
// domain family, spanning easy/structured to hard/noisy.
var DefaultTargets = []string{"FOZA", "DBAC", "AMGO", "WDC", "ITAM"}
