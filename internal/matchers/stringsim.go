package matchers

import (
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// StringSim is the trivial parameter-free baseline from the paper: it
// serialises both tuples by casting each column to a string, joining with
// a comma separator, and predicts a match when the Ratcliff/Obershelp
// similarity of the two serialisations exceeds 0.5 (Python difflib's
// SequenceMatcher ratio).
type StringSim struct {
	// Threshold is the decision threshold; the paper uses 0.5.
	Threshold float64
}

// NewStringSim returns the baseline with the paper's 0.5 threshold.
func NewStringSim() *StringSim {
	return &StringSim{Threshold: 0.5}
}

// Name implements Matcher.
func (m *StringSim) Name() string { return "StringSim" }

// ParamsMillions implements Matcher; StringSim is parameter-free.
func (m *StringSim) ParamsMillions() float64 { return 0 }

// Train implements Matcher; StringSim needs no transfer data.
func (m *StringSim) Train(transfer []*record.Dataset, rng *stats.RNG) {}

// Predict implements Matcher.
func (m *StringSim) Predict(task Task) []bool {
	out := make([]bool, len(task.Pairs))
	m.PredictBatchInto(task, out)
	return out
}

// PredictBatchInto implements BatchPredictor: the same per-pair decision
// as Predict, with one kernel scratch checked out for the whole batch
// instead of one pool round trip per pair.
func (m *StringSim) PredictBatchInto(task Task, out []bool) {
	st := obs.StartStages(task.Ctx)
	sc := textsim.AcquireScratch()
	for i, p := range task.Pairs {
		st.Enter("serialize")
		left := record.SerializeRecord(p.Left, task.Opts)
		right := record.SerializeRecord(p.Right, task.Opts)
		st.Enter("classify")
		// Only the decision is needed here, so the kernel stops as soon
		// as the ratio's side of the threshold is settled.
		out[i] = sc.RatcliffExceeds(left, right, m.Threshold)
		st.Exit()
	}
	sc.Release()
	st.SetInt("classify", "pairs", int64(len(task.Pairs)))
	st.End()
}

// PredictConfidence implements ConfidenceScorer: the decision margin is
// the ratio's distance from the threshold. The exact ratio is always
// computed here; RatcliffExceeds is that ratio's comparison with the
// threshold, so the decisions are identical to Predict's.
func (m *StringSim) PredictConfidence(task Task, out []bool, conf []float64) {
	sc := textsim.AcquireScratch()
	for i, p := range task.Pairs {
		left := record.SerializeRecord(p.Left, task.Opts)
		right := record.SerializeRecord(p.Right, task.Opts)
		r := sc.RatcliffObershelp(left, right)
		out[i] = r > m.Threshold
		conf[i] = decisionMargin(r, m.Threshold)
	}
	sc.Release()
}
