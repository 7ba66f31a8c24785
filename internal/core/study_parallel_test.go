package core

import (
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/matchers"
)

// TestRunQualityParallelMatchesSequential asserts the user-facing
// determinism contract: RunQuality yields identical QualityResults — and
// an identical progress-label sequence — whether the harness runs one
// worker (cells inline, in table order) or fans cells across four.
func TestRunQualityParallelMatchesSequential(t *testing.T) {
	specs := []MatcherSpec{
		{Label: "StringSim", Factory: func() matchers.Matcher { return matchers.NewStringSim() }, Bracketed: never},
		{Label: "ZeroER", Factory: func() matchers.Matcher { return matchers.NewZeroER() }, Bracketed: never},
	}
	cfg := eval.Config{Seeds: []uint64{1, 2}, MaxTest: 120}

	cfg.Parallelism = 1
	var seqLabels []string
	seq, err := RunQuality(eval.NewHarness(cfg), specs, func(l string) { seqLabels = append(seqLabels, l) })
	if err != nil {
		t.Fatal(err)
	}

	cfg.Parallelism = 4
	var parLabels []string
	par, err := RunQuality(eval.NewHarness(cfg), specs, func(l string) { parLabels = append(parLabels, l) })
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seq.Results, par.Results) {
		t.Fatal("4-worker RunQuality results differ from the one-worker run")
	}
	if !reflect.DeepEqual(seqLabels, parLabels) {
		t.Fatalf("progress labels differ: one worker %v, four %v", seqLabels, parLabels)
	}
	if !reflect.DeepEqual(seqLabels, []string{"StringSim", "ZeroER"}) {
		t.Fatalf("progress labels out of spec order: %v", seqLabels)
	}
}
