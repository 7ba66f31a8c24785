package mlcore

import (
	"math"

	"repro/internal/stats"
)

// Fit is the per-example training loop shared by the fine-tuned heads.
// It holds out a validation set — a tenth of the examples, but at least
// 8 and at most half of them, and none below 10 examples — then, each
// epoch, shuffles the rest, calls step on every one of them and sums loss
// over the validation set. keep runs whenever that sum is strictly lower
// than every earlier epoch's, so the caller can checkpoint its weights.
// Fit reports whether keep ran: when it did, the caller restores the
// checkpoint, the early-stopping discipline that keeps a fine-tuning run
// from shipping a diverged final epoch.
func Fit(examples []Example, epochs int, rng *stats.RNG, step func(Example), loss func(Example) float64, keep func()) bool {
	if len(examples) == 0 {
		return false
	}
	shuffled := append([]Example(nil), examples...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nVal := len(shuffled) / 10
	if nVal > 0 && nVal < 8 {
		nVal = min(8, len(shuffled)/2)
	}
	val, train := shuffled[:nVal], shuffled[nVal:]

	bestLoss := math.Inf(1)
	kept := false
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		for _, ex := range train {
			step(ex)
		}
		if len(val) == 0 {
			continue
		}
		sum := 0.0
		for _, ex := range val {
			sum += loss(ex)
		}
		if sum < bestLoss {
			bestLoss = sum
			keep()
			kept = true
		}
	}
	return kept
}

// Adam is a lazy Adam optimiser addressed by flat parameter index.
// Per-parameter timesteps implement lazy sparse Adam: parameters a sparse
// input leaves untouched accumulate no stale momentum.
type Adam struct {
	lr   float64
	m, v []float64
	t    []int
}

// NewAdam returns an optimiser over n parameters with step size lr.
func NewAdam(n int, lr float64) *Adam {
	return &Adam{lr: lr, m: make([]float64, n), v: make([]float64, n), t: make([]int, n)}
}

// Step updates the moment estimates for parameter idx with gradient g and
// returns the additive delta.
func (a *Adam) Step(idx int, g float64) float64 {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	a.t[idx]++
	a.m[idx] = beta1*a.m[idx] + (1-beta1)*g
	a.v[idx] = beta2*a.v[idx] + (1-beta2)*g*g
	bc1 := 1 - math.Pow(beta1, float64(a.t[idx]))
	bc2 := 1 - math.Pow(beta2, float64(a.t[idx]))
	mh := a.m[idx] / bc1
	vh := a.v[idx] / bc2
	return -a.lr * mh / (math.Sqrt(vh) + eps)
}
