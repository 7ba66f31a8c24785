package crossem

// Integration tests: run reduced versions of the study end to end and
// assert the orderings the paper's findings rest on. These use one seed
// and reduced test caps; the full protocol lives in cmd/emstudy.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/matchers"
)

// integrationHarness is shared across integration tests.
func integrationHarness(t *testing.T) *eval.Harness {
	t.Helper()
	return eval.NewHarness(eval.Config{Seeds: []uint64{1}, MaxTest: 400})
}

func macroMean(t *testing.T, h *eval.Harness, factory eval.MatcherFactory) float64 {
	t.Helper()
	results, err := h.EvaluateTargets(factory, datasets.Names())
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := eval.MacroMean(results)
	return mean
}

// TestFinding1Ordering: parameter-free matchers trail the LM-based ones
// overall — StringSim is the floor, ZeroER sits between it and the
// capable matchers.
func TestFinding1Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	h := integrationHarness(t)
	stringSim := macroMean(t, h, func() matchers.Matcher { return matchers.NewStringSim() })
	zeroER := macroMean(t, h, func() matchers.Matcher { return matchers.NewZeroER() })
	gpt4 := macroMean(t, h, func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4) })

	if !(stringSim < zeroER && zeroER < gpt4) {
		t.Fatalf("Finding 1 ordering violated: StringSim %.1f, ZeroER %.1f, GPT-4 %.1f",
			stringSim, zeroER, gpt4)
	}
	if stringSim > 55 {
		t.Errorf("StringSim %.1f too strong for a floor baseline", stringSim)
	}
}

// TestFinding3CommercialLadder: the prompted-model quality ladder —
// GPT-3.5 and the open models trail GPT-4o-Mini and GPT-4.
func TestFinding3CommercialLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	h := integrationHarness(t)
	gpt35 := macroMean(t, h, func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT35Turbo) })
	mixtral := macroMean(t, h, func() matchers.Matcher { return matchers.NewMatchGPT(lm.Mixtral8x7B) })
	gpt4oMini := macroMean(t, h, func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4oMini) })
	gpt4 := macroMean(t, h, func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4) })

	if !(gpt35 < gpt4oMini && mixtral < gpt4oMini) {
		t.Errorf("weaker models should trail GPT-4o-Mini: GPT-3.5 %.1f, Mixtral %.1f, 4o-Mini %.1f",
			gpt35, mixtral, gpt4oMini)
	}
	if gpt4 < gpt4oMini-3 {
		t.Errorf("GPT-4 (%.1f) far below GPT-4o-Mini (%.1f)", gpt4, gpt4oMini)
	}
}

// TestTable4DemoDirections: demonstrations hurt GPT-3.5, and random demos
// are no worse than hand-picked for it (the Table 4 directions).
func TestTable4DemoDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	h := eval.NewHarness(eval.Config{Seeds: []uint64{1, 2}, MaxTest: 300})
	mean := func(strategy lm.DemoStrategy) float64 {
		results, err := h.EvaluateTargets(func() matchers.Matcher {
			return matchers.NewMatchGPTWithDemos(lm.GPT35Turbo, strategy)
		}, datasets.Names())
		if err != nil {
			t.Fatal(err)
		}
		m, _ := eval.MacroMean(results)
		return m
	}
	none := mean(lm.DemoNone)
	hand := mean(lm.DemoHandPicked)
	random := mean(lm.DemoRandom)
	if hand >= none {
		t.Errorf("hand-picked demos (%.1f) should hurt GPT-3.5 vs none (%.1f)", hand, none)
	}
	if random < hand-1 {
		t.Errorf("random demos (%.1f) should not trail hand-picked (%.1f)", random, hand)
	}
}

// TestJellyfishBracketsSeen: Jellyfish scores higher on its seen datasets
// than its unseen capability level would produce — the contamination the
// paper brackets.
func TestJellyfishBracketsSeen(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	h := integrationHarness(t)
	res, err := h.EvaluateTarget(func() matchers.Matcher { return matchers.NewJellyfish() }, "DBAC")
	if err != nil {
		t.Fatal(err)
	}
	seenScore := res.Mean()
	if seenScore < 85 {
		t.Errorf("Jellyfish on seen DBAC = %.1f, expected tuned-level performance", seenScore)
	}
}

// TestFigurePipelinesEndToEnd: figures and findings build from a live
// (reduced) Table 3 run without errors and with sane content.
func TestFigurePipelinesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	h := eval.NewHarness(eval.Config{Seeds: []uint64{1}, MaxTest: 200})
	specs := []core.MatcherSpec{
		core.Table3Specs()[0],  // StringSim
		core.Table3Specs()[1],  // ZeroER
		core.Table3Specs()[12], // GPT-3.5 (Finding 5 normaliser)
		core.Table3Specs()[13], // GPT-4
	}
	q, err := core.RunQuality(h, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Figure3(q); err != nil {
		t.Fatal(err)
	}
	_ = core.Figure4(q)
	f5, err := core.Finding5(q)
	if err != nil {
		t.Fatal(err)
	}
	f6 := core.Finding6(q)
	if core.RenderFindings(f5, f6) == "" {
		t.Fatal("empty findings render")
	}
}
