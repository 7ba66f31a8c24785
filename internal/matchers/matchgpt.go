package matchers

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/lm"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// MatchGPT implements the prompted-LLM matcher of Peeters & Bizer (2023):
// it serialises each candidate pair into the "general-complex-force"
// prompt format (the best-performing schema-free format in their design
// space) and asks a large language model for a forced Yes/No decision.
// The study evaluates six base models and, in Table 4, three
// demonstration strategies with examples drawn from the transfer
// datasets (never from the target — the cross-dataset constraint).
type MatchGPT struct {
	// Strategy selects the demonstration mode (none / hand-picked /
	// random-selected).
	Strategy lm.DemoStrategy
	// NumDemos is the demonstration count; the paper uses three (two
	// negative, one positive).
	NumDemos int

	profile lm.Profile
	model   *lm.PromptModel
	rng     *stats.RNG
	demos   []lm.Demo
}

// NewMatchGPT returns a MatchGPT matcher over the given model profile with
// no demonstrations (the Table 3 configuration).
func NewMatchGPT(profile lm.Profile) *MatchGPT {
	return &MatchGPT{profile: profile, NumDemos: 3}
}

// NewMatchGPTWithDemos returns a MatchGPT matcher using the given
// demonstration strategy (the Table 4 configurations).
func NewMatchGPTWithDemos(profile lm.Profile, strategy lm.DemoStrategy) *MatchGPT {
	return &MatchGPT{profile: profile, Strategy: strategy, NumDemos: 3}
}

// Name implements Matcher.
func (m *MatchGPT) Name() string { return fmt.Sprintf("MatchGPT [%s]", m.profile.Name) }

// ParamsMillions implements Matcher.
func (m *MatchGPT) ParamsMillions() float64 { return m.profile.ParamsMillions }

// Train implements Matcher. Prompted models are not fine-tuned; the
// transfer datasets are used solely to select demonstrations when the
// strategy asks for them.
func (m *MatchGPT) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.rng = rng
	m.demos = selectDemos(transfer, m.Strategy, m.NumDemos, rng.Split("matchgpt:demos"))
}

// Predict implements Matcher.
func (m *MatchGPT) Predict(task Task) []bool {
	rng := m.rng
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	model := lm.NewPromptModel(m.profile, rng.Split("matchgpt:model"))
	model.SetDemos(m.demos)
	st := obs.StartStages(task.Ctx)
	st.Enter("serialize")
	// The engine sees the batch it scores (candidate sets are processed in
	// batch), which grounds its token-rarity knowledge.
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

// annotatePromptCost attaches prompt-token and Table-6 dollar attributes
// to a traced prediction's "prompt" stage. Only runs when tracing is on
// (a nil Stages skips it), so untraced runs never pay the token count.
func annotatePromptCost(st *obs.Stages, model string, task Task) {
	if st == nil {
		return
	}
	var tokens int64
	for _, p := range task.Pairs {
		tokens += int64(cost.PairTokens(p, task.Opts))
	}
	st.SetInt("prompt", "pairs", int64(len(task.Pairs)))
	st.SetInt("prompt", "tokens", tokens)
	if rate, err := cost.ServingRate(model); err == nil {
		st.SetFloat("prompt", "usd", cost.Dollars(tokens, rate))
	}
}

// selectDemos draws demonstrations from the transfer datasets.
//
// Hand-picked selection models an expert choosing three clean,
// prototypical examples (one positive, two negatives) from a single
// transfer dataset — the expert picks examples that are unambiguous in
// their home dataset, which is precisely why they transfer poorly: one
// source pulls the prompted model's boundary as a whole, and an obvious
// positive beside unrelated negatives pulls it low (see
// lm.PromptModel.SetDemos). Random selection draws uniformly across all
// transfer datasets.
func selectDemos(transfer []*record.Dataset, strategy lm.DemoStrategy, n int, rng *stats.RNG) []lm.Demo {
	if strategy == lm.DemoNone || len(transfer) == 0 {
		return nil
	}
	var demos []lm.Demo
	switch strategy {
	case lm.DemoHandPicked:
		// The expert works within one familiar dataset and picks the
		// highest-clarity examples: the positive with the most shared
		// tokens, the negatives with the fewest.
		d := transfer[rng.Intn(len(transfer))]
		bestPos, worstNegA, worstNegB := -1, -1, -1
		var bestPosScore, worstScoreA, worstScoreB float64
		worstScoreA, worstScoreB = 2, 2
		for i, p := range d.Pairs {
			score := demoClarity(p)
			if p.Match {
				if score > bestPosScore || bestPos < 0 {
					bestPos, bestPosScore = i, score
				}
			} else {
				if score < worstScoreA {
					worstNegB, worstScoreB = worstNegA, worstScoreA
					worstNegA, worstScoreA = i, score
				} else if score < worstScoreB {
					worstNegB, worstScoreB = i, score
				}
			}
		}
		for _, i := range []int{worstNegA, bestPos, worstNegB} {
			if i >= 0 {
				demos = append(demos, lm.Demo{Pair: d.Pairs[i], Dataset: d.Name})
			}
		}
	case lm.DemoRandom:
		// One positive, two negatives, from random transfer datasets.
		wantPos := 1
		for len(demos) < n {
			d := transfer[rng.Intn(len(transfer))]
			p := d.Pairs[rng.Intn(len(d.Pairs))]
			if p.Match && wantPos <= 0 {
				continue
			}
			if !p.Match && (n-len(demos)) <= wantPos {
				continue
			}
			if p.Match {
				wantPos--
			}
			demos = append(demos, lm.Demo{Pair: p, Dataset: d.Name})
		}
	}
	if len(demos) > n {
		demos = demos[:n]
	}
	return demos
}

// demoClarity scores how prototypical a labeled pair looks: high for
// positives with obvious overlap, low for negatives with no overlap.
func demoClarity(p record.LabeledPair) float64 {
	left := record.SerializeRecord(p.Left, record.SerializeOptions{})
	right := record.SerializeRecord(p.Right, record.SerializeOptions{})
	return textsim.TokenJaccardP(textsim.Shared().Get(left), textsim.Shared().Get(right))
}
