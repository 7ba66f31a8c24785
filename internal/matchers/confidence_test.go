package matchers

import (
	"testing"

	"repro/internal/record"
	"repro/internal/stats"
)

// TestPredictConfidenceMatchesPredict pins the ConfidenceScorer
// contract for every matcher that implements it: decisions must be
// bit-identical to Predict on the same task, and every confidence must
// land in [0,1]. The routing cascade relies on this — escalation may
// only change WHICH tier answers, never what a given tier would answer.
func TestPredictConfidenceMatchesPredict(t *testing.T) {
	task, _ := miniTask(t, "ABT", 120)
	transfer := []*record.Dataset{
		benchmarkDataset("BEER"),
		benchmarkDataset("FOZA"),
	}
	ms := []Matcher{
		NewStringSim(),
		NewDitto(),
		NewUnicorn(),
		NewAnyMatchGPT2(),
	}
	for _, m := range ms {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			m.Train(transfer, stats.NewRNG(1).Split(m.Name()))
			cs, ok := m.(ConfidenceScorer)
			if !ok {
				t.Fatalf("%s does not implement ConfidenceScorer", m.Name())
			}
			want := m.Predict(task)
			out := make([]bool, len(task.Pairs))
			conf := make([]float64, len(task.Pairs))
			cs.PredictConfidence(task, out, conf)
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("pair %d: confidence-path decision %v != Predict %v", i, out[i], want[i])
				}
				if conf[i] < 0 || conf[i] > 1 {
					t.Fatalf("pair %d: confidence %g outside [0,1]", i, conf[i])
				}
			}
			// Confidence must discriminate: a batch with both matches and
			// non-matches should not score every pair identically.
			allSame := true
			for i := 1; i < len(conf); i++ {
				if conf[i] != conf[0] {
					allSame = false
					break
				}
			}
			if allSame && len(conf) > 1 {
				t.Errorf("all %d confidences identical (%g); scorer is non-informative", len(conf), conf[0])
			}
		})
	}
}

func TestDecisionMargin(t *testing.T) {
	cases := []struct {
		score, thr, want float64
	}{
		{0.5, 0.5, 0}, // on the boundary: zero confidence
		{1, 0.5, 1},   // far side: full confidence
		{0, 0.5, 1},   // far other side: full confidence
		{0.75, 0.5, 0.5},
		{0.25, 0.5, 0.5},
		{0.3, 0, 0.3}, // threshold 0: margin is the score itself
		{0.3, 1, 0.7}, // threshold 1: margin is the distance below it
		{1, 1, 1},     // degenerate side (d = 0): fully confident
		{0, 0, 0},     // exactly on a boundary threshold: zero margin
	}
	for _, c := range cases {
		if got := decisionMargin(c.score, c.thr); got != c.want {
			t.Errorf("decisionMargin(%g, %g) = %g, want %g", c.score, c.thr, got, c.want)
		}
	}
	for _, c := range []struct{ score, thr float64 }{{0.9, 0.8}, {0.1, 0.8}, {0.8, 0.8}} {
		if got := decisionMargin(c.score, c.thr); got < 0 || got > 1 {
			t.Errorf("decisionMargin(%g, %g) = %g outside [0,1]", c.score, c.thr, got)
		}
	}
}
