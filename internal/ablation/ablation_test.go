package ablation

import (
	"strings"
	"testing"

	"repro/internal/eval"
)

func smallHarness() *eval.Harness {
	return eval.NewHarness(eval.Config{Seeds: []uint64{1}, MaxTest: 150})
}

func TestPromptEngineAblation(t *testing.T) {
	h := smallHarness()
	s, err := PromptEngine(h, []string{"FOZA", "WDC"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Variants) != 5 {
		t.Fatalf("%d variants", len(s.Variants))
	}
	// The fully ablated engine must not beat the full engine.
	mean := make(map[string]float64)
	for _, v := range s.Variants {
		mean[v.Name] = v.Mean
	}
	if d := mean["similarity only"] - mean[s.Baseline]; d > 1.0 {
		t.Errorf("similarity-only beat the full engine by %.1f", d)
	}
	out := s.Render()
	if !strings.Contains(out, "full engine") || !strings.Contains(out, "Δ") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAnyMatchPipelineAblation(t *testing.T) {
	h := smallHarness()
	s, err := AnyMatchPipeline(h, []string{"ZOYE"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Variants) != 4 {
		t.Fatalf("%d variants", len(s.Variants))
	}
	for _, v := range s.Variants {
		if v.Mean < 0 || v.Mean > 100 {
			t.Fatalf("%s: mean %v", v.Name, v.Mean)
		}
		if len(v.PerTarget) != 1 {
			t.Fatalf("%s: per-target %v", v.Name, v.PerTarget)
		}
	}
}

func TestEncoderCapacityAblation(t *testing.T) {
	h := smallHarness()
	s, err := EncoderCapacity(h, []string{"ZOYE"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Variants) != 4 {
		t.Fatalf("%d variants", len(s.Variants))
	}
	// Capacity should help on balance: xl must not trail tiny by much.
	var tiny, xl float64
	for _, v := range s.Variants {
		if strings.HasPrefix(v.Name, "tiny") {
			tiny = v.Mean
		}
		if strings.HasPrefix(v.Name, "xl") {
			xl = v.Mean
		}
	}
	if xl < tiny-5 {
		t.Errorf("xl encoder (%.1f) far below tiny (%.1f)", xl, tiny)
	}
}
