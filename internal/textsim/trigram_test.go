package textsim

import (
	"slices"
	"testing"
)

// FuzzTrigramSet holds a profile's lazily built trigram set — the byte
// kernel on ASCII text — to the rune path on arbitrary input, invalid
// UTF-8 included: the same grams in the same order. It also holds the
// q-gram Jaccard join of the set, against an ASCII and a non-ASCII
// partner, to the map-based legacy kernel bit for bit.
func FuzzTrigramSet(f *testing.F) {
	for _, s := range equivCorpus {
		f.Add(s)
	}
	f.Add(longRecords[0])
	f.Add("\x00\x7f## #")
	f.Add("##\xff#")
	f.Fuzz(func(t *testing.T, s string) {
		p := newProfile(s, sharedInterner)
		want := gramsOf(trigramSetRunes(p.Lower))
		got := make([]string, p.NumGrams())
		for i := range got {
			got[i] = p.Gram(i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("profile of %q: grams %q, rune path %q", s, got, want)
		}
		for _, o := range []string{longRecords[0], "Café Au Lait, naïve résumé"} {
			eq(t, "QGramJaccardP", s, o, QGramJaccardP(p, newProfile(o, sharedInterner)), legacyQGramJaccard(s, o))
		}
	})
}
