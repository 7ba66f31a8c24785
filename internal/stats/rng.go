// Package stats provides the statistical substrate of the study: seeded,
// stream-splittable random number generation, descriptive statistics,
// Welch's two-sample t-test (used for Finding 5) and Spearman rank
// correlation (used for Finding 6).
//
// All experiments in the reproduction are deterministic given a seed; the
// RNG in this package is the single source of randomness and supports
// hierarchical splitting so that independent components (dataset
// generation, serialization shuffling, model initialisation, demonstration
// selection) draw from decorrelated streams.
package stats

import "math"

// RNG is a small, fast, deterministic random number generator based on the
// SplitMix64 algorithm. It is intentionally not math/rand: the study needs
// (a) stable results across Go releases and (b) cheap stream derivation via
// Split, neither of which math/rand guarantees.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	// Avoid the all-zero state producing a short warmup of small values by
	// mixing the seed once through the output function.
	r := &RNG{state: seed}
	r.Uint64()
	return r
}

// State exposes the generator's internal state for checkpointing. A
// generator rebuilt with FromState(State()) continues the exact stream.
func (r *RNG) State() uint64 { return r.state }

// FromState reconstructs a generator from a State() value. Unlike NewRNG
// it does not re-mix: the state is installed verbatim, so the restored
// generator's next draw equals the snapshotted generator's next draw.
func FromState(state uint64) *RNG {
	return &RNG{state: state}
}

// Split derives an independent child generator identified by label. Children
// with different labels, or derived from generators with different states,
// produce decorrelated streams. The parent is not advanced.
//
// The label is hashed with 64-bit FNV-1a, byte by byte over the string, so
// deriving a child allocates nothing beyond the child itself.
func (r *RNG) Split(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return NewRNG(r.state ^ (h | 1))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normally distributed value (Box–Muller).
func (r *RNG) Norm() float64 {
	// Draw u1 in (0,1] to keep the log finite.
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), making the
// same draws in the same order as Perm(len(p)). It lets a caller that
// picks from a small pool many times reuse one scratch slice.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes a slice in place using swap, like rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. If k >= n it returns a permutation of all n indices.
func (r *RNG) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	p := r.Perm(n)
	return p[:k]
}
