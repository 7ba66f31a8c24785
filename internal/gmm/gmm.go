// Package gmm implements the two-component Gaussian mixture model with
// expectation–maximisation that powers the ZeroER matcher. ZeroER's core
// observation (Wu et al., SIGMOD 2020) is that similarity vectors of
// matching pairs are distributed differently from those of non-matching
// pairs, so an unsupervised mixture over similarity space separates the
// classes without any labels.
//
// The implementation follows ZeroER's design at the level the study
// exercises: diagonal covariances with adaptive regularisation, a
// match-prior initialisation reflecting the rarity of matches, and a hard
// cap on the match-component weight that encodes ZeroER's "matches are
// rare" prior.
package gmm

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// Config configures mixture fitting.
type Config struct {
	MaxIter  int     // EM iterations
	Tol      float64 // log-likelihood convergence tolerance
	RegVar   float64 // variance floor (adaptive regularisation)
	MaxPrior float64 // upper bound on the match-component prior
}

// DefaultConfig returns ZeroER's fitting configuration.
func DefaultConfig() Config {
	return Config{MaxIter: 200, Tol: 1e-6, RegVar: 1e-4, MaxPrior: 0.5}
}

// Mixture is a fitted two-component diagonal Gaussian mixture. Component 1
// is the match component, component 0 the non-match component.
type Mixture struct {
	dim    int
	prior  float64 // P(match)
	mean   [2][]float64
	vari   [2][]float64
	fitted bool
}

// Fit runs EM on the similarity vectors. Initialisation is deterministic
// given rng: the match component starts at the centroid of the top decile
// of mean similarity, the non-match component at the bottom half's
// centroid — mirroring ZeroER's seeding of the match component with the
// highest-similarity pairs.
func Fit(xs [][]float64, cfg Config, rng *stats.RNG) *Mixture {
	if len(xs) < 4 {
		// Not enough mass to estimate anything; return an uninformative
		// mixture that scores everything at the prior.
		return &Mixture{dim: dimOf(xs), prior: 0.1}
	}
	dim := len(xs[0])
	m := &Mixture{dim: dim, prior: 0.1, fitted: true}

	// Rank pairs by mean similarity for seeding.
	n := len(xs)
	meanSim := make([]float64, n)
	for i, x := range xs {
		meanSim[i] = stats.Mean(x)
	}
	idx := argsortDesc(meanSim)
	topK := n / 10
	if topK < 2 {
		topK = 2
	}
	m.mean[1] = centroid(xs, idx[:topK])
	m.mean[0] = centroid(xs, idx[n/2:])
	for c := 0; c < 2; c++ {
		m.vari[c] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			m.vari[c][d] = 0.05
		}
	}

	resp := make([]float64, n) // responsibility of the match component
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// E-step.
		ll := 0.0
		for i, x := range xs {
			l1 := math.Log(m.prior) + m.logDensity(1, x)
			l0 := math.Log(1-m.prior) + m.logDensity(0, x)
			lse := logSumExp(l0, l1)
			resp[i] = math.Exp(l1 - lse)
			ll += lse
		}
		// M-step.
		sumR := 0.0
		for _, r := range resp {
			sumR += r
		}
		m.prior = stats.Clamp(sumR/float64(n), 1e-4, cfg.MaxPrior)
		for c := 0; c < 2; c++ {
			var weightSum float64
			mean := make([]float64, dim)
			for i, x := range xs {
				w := resp[i]
				if c == 0 {
					w = 1 - w
				}
				weightSum += w
				for d := 0; d < dim; d++ {
					mean[d] += w * x[d]
				}
			}
			if weightSum < 1e-9 {
				continue
			}
			for d := 0; d < dim; d++ {
				mean[d] /= weightSum
			}
			vari := make([]float64, dim)
			for i, x := range xs {
				w := resp[i]
				if c == 0 {
					w = 1 - w
				}
				for d := 0; d < dim; d++ {
					diff := x[d] - mean[d]
					vari[d] += w * diff * diff
				}
			}
			for d := 0; d < dim; d++ {
				vari[d] = vari[d]/weightSum + cfg.RegVar
			}
			m.mean[c], m.vari[c] = mean, vari
		}
		if math.Abs(ll-prevLL) < cfg.Tol*math.Abs(prevLL)+cfg.Tol {
			break
		}
		prevLL = ll
	}

	// ZeroER assumes the match component has the *higher* similarity; if EM
	// drifted into the mirror solution, swap the components.
	if stats.Mean(m.mean[1]) < stats.Mean(m.mean[0]) {
		m.mean[0], m.mean[1] = m.mean[1], m.mean[0]
		m.vari[0], m.vari[1] = m.vari[1], m.vari[0]
		m.prior = stats.Clamp(1-m.prior, 1e-4, cfg.MaxPrior)
	}
	return m
}

// MatchProb returns the posterior probability that x belongs to the match
// component.
func (m *Mixture) MatchProb(x []float64) float64 {
	if !m.fitted {
		return m.prior
	}
	l1 := math.Log(m.prior) + m.logDensity(1, x)
	l0 := math.Log(1-m.prior) + m.logDensity(0, x)
	return math.Exp(l1 - logSumExp(l0, l1))
}

// logDensity computes the diagonal-Gaussian log density of component c.
func (m *Mixture) logDensity(c int, x []float64) float64 {
	ll := 0.0
	for d := 0; d < m.dim && d < len(x); d++ {
		v := m.vari[c][d]
		diff := x[d] - m.mean[c][d]
		ll += -0.5 * (math.Log(2*math.Pi*v) + diff*diff/v)
	}
	return ll
}

func logSumExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

func centroid(xs [][]float64, idx []int) []float64 {
	dim := len(xs[0])
	c := make([]float64, dim)
	if len(idx) == 0 {
		return c
	}
	for _, i := range idx {
		for d := 0; d < dim; d++ {
			c[d] += xs[i][d]
		}
	}
	for d := 0; d < dim; d++ {
		c[d] /= float64(len(idx))
	}
	return c
}

func argsortDesc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}

func dimOf(xs [][]float64) int {
	if len(xs) == 0 {
		return 0
	}
	return len(xs[0])
}
