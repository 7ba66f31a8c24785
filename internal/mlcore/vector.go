// Package mlcore implements the trainable machine-learning substrate that
// stands in for the GPU fine-tuning stack of the paper: sparse feature
// hashing, logistic regression and multi-layer perceptrons trained with
// Adam, plus the train/validate loop shared by all fine-tuned matchers.
//
// Design note: the paper fine-tunes transformer language models (BERT,
// DeBERTa, GPT-2, T5, LLaMA 3.2) on serialized record pairs. What the study
// measures is the behaviour of "encode text, train a classifier on transfer
// data, predict on an unseen dataset". This package reproduces that
// learning problem at laptop scale with hashed textual features and neural
// prediction heads; the capacity knobs (hash width, hidden size) map to
// model scale. See DESIGN.md for the substitution rationale.
package mlcore

import "math"

// SparseVec is a sparse feature vector: parallel index/value slices sorted
// by construction order (not by index). Duplicate indices are allowed and
// accumulate in dot products, which is exactly what hashed features need.
type SparseVec struct {
	Idx []int
	Val []float64
}

// Add appends one feature to the vector.
func (v *SparseVec) Add(idx int, val float64) {
	v.Idx = append(v.Idx, idx)
	v.Val = append(v.Val, val)
}

// Reset empties the vector while keeping its capacity, so batch encoders
// can reuse one scratch vector across many pairs instead of allocating
// per pair.
func (v *SparseVec) Reset() {
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
}

// Grow ensures capacity for at least n additional entries, so encoders
// that know the feature count up front avoid append's doubling copies.
func (v *SparseVec) Grow(n int) {
	if need := len(v.Idx) + n; need > cap(v.Idx) {
		idx := make([]int, len(v.Idx), need)
		copy(idx, v.Idx)
		v.Idx = idx
		val := make([]float64, len(v.Val), need)
		copy(val, v.Val)
		v.Val = val
	}
}

// Dot returns the dot product with a dense weight vector.
func (v *SparseVec) Dot(w []float64) float64 {
	s := 0.0
	for i, idx := range v.Idx {
		s += w[idx] * v.Val[i]
	}
	return s
}

// Sigmoid is the logistic function, numerically stable for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// LogLoss returns the binary cross-entropy of probability p against label
// y ∈ {0,1}, clamping p away from 0 and 1 for stability.
func LogLoss(p, y float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return -(y*math.Log(p) + (1-y)*math.Log(1-p))
}
