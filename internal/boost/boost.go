// Package boost implements gradient-boosted decision stumps over dense
// similarity features. The study uses it in two roles: as the hard-example
// mining step of AnyMatch's data-centric fine-tuning pipeline (examples the
// booster gets wrong are "difficult" and prioritised for fine-tuning), and
// as a classical-ML reference point in the ablation benchmarks.
package boost

import (
	"math"
	"sort"

	"repro/internal/par"
)

// Config configures booster training.
type Config struct {
	Rounds    int     // number of stumps
	LearnRate float64 // shrinkage applied to each stump's contribution
}

// DefaultConfig returns the configuration used by AnyMatch's selector.
func DefaultConfig() Config {
	return Config{Rounds: 50, LearnRate: 0.3}
}

// stump is a depth-1 regression tree on one feature.
type stump struct {
	feature    int
	threshold  float64
	leftValue  float64 // contribution when x[feature] < threshold
	rightValue float64
}

// Booster is a gradient-boosted ensemble of decision stumps minimising
// logistic loss.
type Booster struct {
	bias   float64
	stumps []stump
	lr     float64
}

// Train fits a booster on dense feature rows xs with labels ys ∈ {0,1}.
// All rows must have the same length.
func Train(xs [][]float64, ys []float64, cfg Config) *Booster {
	if len(xs) == 0 {
		return &Booster{}
	}
	nFeat := len(xs[0])
	n := len(xs)

	// Initialise with the log-odds of the base rate.
	pos := 0.0
	for _, y := range ys {
		pos += y
	}
	p0 := clampProb(pos / float64(n))
	b := &Booster{bias: math.Log(p0 / (1 - p0)), lr: cfg.LearnRate}

	// Pre-sort feature columns once for fast threshold search. Columns are
	// independent, so the sorts fan out across CPUs; each column's order is
	// a pure function of its values, keeping the ensemble deterministic.
	order := make([][]int, nFeat)
	_ = par.Do(nFeat, 0, func(f int) error {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, c int) bool { return xs[idx[a]][f] < xs[idx[c]][f] })
		order[f] = idx
		return nil
	})

	logits := make([]float64, n)
	for i := range logits {
		logits[i] = b.bias
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	for round := 0; round < cfg.Rounds; round++ {
		for i := range grad {
			p := sigmoid(logits[i])
			grad[i] = p - ys[i]
			hess[i] = p * (1 - p)
		}
		st, gain := bestStump(xs, order, grad, hess)
		if gain <= 1e-9 {
			break
		}
		st.leftValue *= cfg.LearnRate
		st.rightValue *= cfg.LearnRate
		b.stumps = append(b.stumps, st)
		for i := range logits {
			logits[i] += st.apply(xs[i])
		}
	}
	return b
}

// bestStump finds the (feature, threshold) split maximising the standard
// second-order gain, with Newton leaf values -G/(H+λ).
func bestStump(xs [][]float64, order [][]int, grad, hess []float64) (stump, float64) {
	const lambda = 1.0
	var totalG, totalH float64
	for i := range grad {
		totalG += grad[i]
		totalH += hess[i]
	}
	score := func(g, h float64) float64 { return g * g / (h + lambda) }
	base := score(totalG, totalH)

	var best stump
	bestGain := 0.0
	for f := range order {
		idx := order[f]
		var leftG, leftH float64
		for k := 0; k < len(idx)-1; k++ {
			i := idx[k]
			leftG += grad[i]
			leftH += hess[i]
			// Only split between distinct feature values.
			cur, next := xs[idx[k]][f], xs[idx[k+1]][f]
			if cur == next {
				continue
			}
			gain := score(leftG, leftH) + score(totalG-leftG, totalH-leftH) - base
			if gain > bestGain {
				bestGain = gain
				best = stump{
					feature:    f,
					threshold:  (cur + next) / 2,
					leftValue:  -leftG / (leftH + lambda),
					rightValue: -(totalG - leftG) / (totalH - leftH + lambda),
				}
			}
		}
	}
	return best, bestGain
}

func (s stump) apply(x []float64) float64 {
	if x[s.feature] < s.threshold {
		return s.leftValue
	}
	return s.rightValue
}

// Prob returns the predicted match probability for a dense feature row.
func (b *Booster) Prob(x []float64) float64 {
	logit := b.bias
	for _, s := range b.stumps {
		logit += s.apply(x)
	}
	return sigmoid(logit)
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

func clampProb(p float64) float64 {
	const eps = 1e-4
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
