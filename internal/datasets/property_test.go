package datasets

import (
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// TestGeneratorInvariantsAcrossSeeds: any seed must produce the exact
// published counts, non-empty primary values, and well-formed arity.
func TestGeneratorInvariantsAcrossSeeds(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		d := MustGenerate("BEER", uint64(seed))
		if d.Positives() != 68 || len(d.Pairs)-d.Positives() != 382 {
			return false
		}
		for _, p := range d.Pairs {
			if len(p.Left.Values) != 4 || len(p.Right.Values) != 4 {
				return false
			}
			if p.Left.Values[0] == "" || p.Right.Values[0] == "" {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionNeverPanics: the corruption operators must handle
// arbitrary strings (unicode, punctuation, empty-ish) without panicking.
func TestCorruptionNeverPanics(t *testing.T) {
	rng := stats.NewRNG(1)
	prof := CorruptionProfile{
		Abbreviate: 0.5, Typo: 0.5, DropToken: 0.5, AddNoise: 0.5,
		NoiseTokens: 2, Reorder: 0.5, CaseFlip: 0.5, NumberFormat: 0.5,
		MissingValue: 0.1, Truncate: 0.5,
	}
	if err := quick.Check(func(s string) bool {
		if len(s) > 300 {
			s = s[:300]
		}
		_ = corruptValue(s, prof, rng)
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHardNegativesDiffer: hard-negative construction must always produce
// an entity that differs from its source in at least one attribute —
// otherwise the generator would create mislabeled negatives. The raw
// mutators may rarely reproduce the source (small vocabularies); the
// mutateDistinct guard retries until they differ.
func TestHardNegativesDiffer(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, s := range allSpecs() {
		for i := 0; i < 100; i++ {
			e := s.gen(rng.Split(s.name+strconv.Itoa(i)), i+1)
			m := mutateDistinct(s, clone(e), rng.Split(s.name+"-mut"+strconv.Itoa(i)), i, i+1)
			if sameEntity(e, m) {
				t.Errorf("%s: mutation %d produced an identical entity %v", s.name, i, e)
				break
			}
		}
	}
}

// TestViewsPreserveArity: the corruption views keep the schema arity for
// every dataset and every pair.
func TestViewsPreserveArity(t *testing.T) {
	for _, d := range GenerateAll(99) {
		want := d.Schema.NumAttrs()
		for i, p := range d.Pairs {
			if len(p.Left.Values) != want || len(p.Right.Values) != want {
				t.Fatalf("%s pair %d: arity %d/%d, want %d",
					d.Name, i, len(p.Left.Values), len(p.Right.Values), want)
			}
		}
	}
}

// TestImbalanceMatchesTable1: the per-dataset imbalance rates drive the
// Finding-6 analysis; they must follow the published counts exactly.
func TestImbalanceMatchesTable1(t *testing.T) {
	for _, s := range Table1() {
		d := MustGenerate(s.Name, 42)
		want := float64(s.Neg) / float64(s.Pos+s.Neg)
		if got := float64(len(d.Pairs)-d.Positives()) / float64(len(d.Pairs)); got != want {
			t.Errorf("%s: imbalance %v, want %v", s.Name, got, want)
		}
	}
}
