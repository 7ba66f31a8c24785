package mlcore

import (
	"hash/fnv"
	"testing"
)

// Index and Sign are the concatenate-then-hash reference, over hash/fnv,
// that the prefixed hashes are held to.

// Index maps a feature name to a bucket in [0, width).
func (h *Hasher) Index(feature string) int {
	f := fnv.New64a()
	f.Write([]byte(feature))
	return int(f.Sum64() % uint64(h.width))
}

// Sign returns a deterministic ±1 for a feature, used for signed hashing to
// make collisions cancel in expectation rather than accumulate.
func (h *Hasher) Sign(feature string) float64 {
	f := fnv.New64a()
	f.Write([]byte(feature))
	f.Write([]byte{0x5a})
	if f.Sum64()&1 == 0 {
		return 1
	}
	return -1
}

// TestPrefixedHashingEquivalence pins the allocation-free prefixed hash
// against the straightforward concatenate-then-hash path: the encoder's
// feature indices and signs must be identical either way, or hashed
// feature vectors silently change.
func TestPrefixedHashingEquivalence(t *testing.T) {
	prefixes := []string{"", "both:", "only:", "g:", "attr:", "北:"}
	features := []string{"", "token", "Token", "1,234", "$99.00", "##ab", "北京", "🙂", "a b c"}
	for _, width := range []int{1, 7, 4096, 1 << 18} {
		h := NewHasher(width)
		for _, p := range prefixes {
			for _, f := range features {
				if got, want := h.IndexPrefixed(p, f), h.Index(p+f); got != want {
					t.Errorf("width %d: IndexPrefixed(%q, %q) = %d, Index(%q) = %d", width, p, f, got, p+f, want)
				}
				if got, want := h.SignPrefixed(p, f), h.Sign(p+f); got != want {
					t.Errorf("width %d: SignPrefixed(%q, %q) = %v, Sign(%q) = %v", width, p, f, got, p+f, want)
				}
			}
		}
	}
}

// TestSparseVecGrow checks Grow preserves contents and Add-order
// semantics after reallocation.
func TestSparseVecGrow(t *testing.T) {
	var v SparseVec
	v.Add(3, 1.5)
	v.Add(1, -2.0)
	v.Grow(100)
	v.Add(3, 0.5) // duplicate index accumulates on Dot just like before
	if len(v.Idx) != 3 || v.Idx[0] != 3 || v.Idx[1] != 1 || v.Idx[2] != 3 {
		t.Fatalf("Grow disturbed emission order: idx=%v", v.Idx)
	}
	if v.Val[0] != 1.5 || v.Val[1] != -2.0 || v.Val[2] != 0.5 {
		t.Fatalf("Grow disturbed values: val=%v", v.Val)
	}
}
