//go:build !race

// Compiled out under -race: the race detector defeats sync.Pool, so
// AllocsPerRun means nothing there.

package lm

import "testing"

// TestKnowsUZeroAlloc gates the knowledge draw: hashing an entry given in
// parts builds no string and no hash.Hash.
func TestKnowsUZeroAlloc(t *testing.T) {
	tok := string([]byte("p13715"))
	if allocs := testing.AllocsPerRun(100, func() {
		knowsU("norm:", tok)
		knowsU("rare:", tok, "#a")
	}); allocs != 0 {
		t.Fatalf("knowsU: %v allocs per draw pair, want 0", allocs)
	}
}
