// Package core is the study runner: it wires the matchers, the
// leave-one-dataset-out harness, the cost model and the statistics into
// the concrete experiments of the paper — Tables 1, 3, 4, 5 and 6,
// Figures 3 and 4, and the statistical analyses behind Findings 5 and 6.
package core

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/matchers"
)

// MatcherSpec describes one row of a quality table.
type MatcherSpec struct {
	// Label is the row label as in the paper, e.g. "MatchGPT [GPT-4]".
	Label string
	// ParamsMillions is the underlying model size (0 for parameter-free).
	ParamsMillions float64
	// Factory builds a fresh matcher per evaluation run.
	Factory eval.MatcherFactory
	// Bracketed reports whether this matcher's score on the target must be
	// bracketed (training contamination, e.g. Jellyfish's seen datasets).
	Bracketed func(target string) bool
}

func never(string) bool { return false }

// Table3Specs returns the 14 matcher configurations of Table 3 in row
// order.
func Table3Specs() []MatcherSpec {
	return []MatcherSpec{
		{Label: "StringSim", Factory: func() matchers.Matcher { return matchers.NewStringSim() }, Bracketed: never},
		{Label: "ZeroER", Factory: func() matchers.Matcher { return matchers.NewZeroER() }, Bracketed: never},
		{Label: "Ditto", ParamsMillions: lm.BERT.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewDitto() }, Bracketed: never},
		{Label: "Unicorn", ParamsMillions: lm.DeBERTa.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewUnicorn() }, Bracketed: never},
		{Label: "AnyMatch [GPT-2]", ParamsMillions: lm.GPT2.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewAnyMatchGPT2() }, Bracketed: never},
		{Label: "AnyMatch [T5]", ParamsMillions: lm.T5.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewAnyMatchT5() }, Bracketed: never},
		{Label: "AnyMatch [LLaMA3.2]", ParamsMillions: lm.LLaMA32.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewAnyMatchLLaMA() }, Bracketed: never},
		{Label: "Jellyfish", ParamsMillions: lm.LLaMA213B.ParamsMillions,
			Factory:   func() matchers.Matcher { return matchers.NewJellyfish() },
			Bracketed: func(target string) bool { return matchers.JellyfishSeenDatasets[target] }},
		{Label: "MatchGPT [Mixtral-8x7B]", ParamsMillions: lm.Mixtral8x7B.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewMatchGPT(lm.Mixtral8x7B) }, Bracketed: never},
		{Label: "MatchGPT [SOLAR]", ParamsMillions: lm.SOLAR.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewMatchGPT(lm.SOLAR) }, Bracketed: never},
		{Label: "MatchGPT [Beluga2]", ParamsMillions: lm.Beluga2.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewMatchGPT(lm.Beluga2) }, Bracketed: never},
		{Label: "MatchGPT [GPT-4o-Mini]", ParamsMillions: lm.GPT4oMini.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4oMini) }, Bracketed: never},
		{Label: "MatchGPT [GPT-3.5-Turbo]", ParamsMillions: lm.GPT35Turbo.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT35Turbo) }, Bracketed: never},
		{Label: "MatchGPT [GPT-4]", ParamsMillions: lm.GPT4.ParamsMillions,
			Factory: func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4) }, Bracketed: never},
	}
}

// Table4Specs returns the nine demonstration-strategy configurations of
// Table 4 (three GPT models × three strategies), in row order.
func Table4Specs() []MatcherSpec {
	models := []lm.Profile{lm.GPT4oMini, lm.GPT35Turbo, lm.GPT4}
	strategies := []lm.DemoStrategy{lm.DemoNone, lm.DemoHandPicked, lm.DemoRandom}
	var specs []MatcherSpec
	for _, m := range models {
		m := m
		for _, s := range strategies {
			s := s
			specs = append(specs, MatcherSpec{
				Label:          fmt.Sprintf("%s / %s", m.Name, s),
				ParamsMillions: m.ParamsMillions,
				Factory:        func() matchers.Matcher { return matchers.NewMatchGPTWithDemos(m, s) },
				Bracketed:      never,
			})
		}
	}
	return specs
}

// Table4RAGSpecs extends the Table 4 demonstration study with the
// retrieval-augmented strategy the paper's §5.1 names as future work: for
// each of the three GPT models, the no-demonstration baseline and the RAG
// variant that retrieves per-pair demonstrations from the transfer
// datasets.
func Table4RAGSpecs() []MatcherSpec {
	models := []lm.Profile{lm.GPT4oMini, lm.GPT35Turbo, lm.GPT4}
	var specs []MatcherSpec
	for _, m := range models {
		m := m
		specs = append(specs,
			MatcherSpec{
				Label:          fmt.Sprintf("%s / none", m.Name),
				ParamsMillions: m.ParamsMillions,
				Factory:        func() matchers.Matcher { return matchers.NewMatchGPT(m) },
				Bracketed:      never,
			},
			MatcherSpec{
				Label:          fmt.Sprintf("%s / rag-retrieved", m.Name),
				ParamsMillions: m.ParamsMillions,
				Factory:        func() matchers.Matcher { return matchers.NewMatchGPTRAG(m) },
				Bracketed:      never,
			},
		)
	}
	return specs
}

// QualityResults holds a full quality-table run: per-spec, per-dataset
// evaluation results.
type QualityResults struct {
	Specs   []MatcherSpec
	Results [][]eval.Result // [spec][dataset]
}

// RunQuality evaluates every spec on every target dataset under the
// harness's protocol. The (spec, target, seed) cells of all specs are
// scheduled on the harness's one worker pool; the results are identical
// at any worker count. Progress callbacks (may be nil) fire once per
// completed spec, in spec order, from a single goroutine, since full runs
// take minutes.
func RunQuality(h *eval.Harness, specs []MatcherSpec, progress func(label string)) (*QualityResults, error) {
	factories := make([]eval.MatcherFactory, len(specs))
	labels := make([]string, len(specs))
	for i, spec := range specs {
		factories[i] = spec.Factory
		labels[i] = spec.Label
	}
	var notify func(int)
	if progress != nil {
		notify = func(spec int) { progress(specs[spec].Label) }
	}
	results, err := h.EvaluateSpecsLabeled(factories, labels, notify)
	if err != nil {
		return nil, fmt.Errorf("core: evaluating quality table: %w", err)
	}
	return &QualityResults{Specs: specs, Results: results}, nil
}

// MacroMeanUncontaminated computes the mean column for a spec, excluding
// bracketed datasets is NOT what the paper does (it reports the mean over
// all datasets but brackets the contaminated cells); this helper therefore
// averages everything and mirrors the paper's "Mean" column.
func (q *QualityResults) MacroMean(specIdx int) (mean, std float64) {
	return eval.MacroMean(q.Results[specIdx])
}

// DatasetNames returns the dataset order of the results.
func DatasetNames() []string { return datasets.Names() }
