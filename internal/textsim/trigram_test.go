package textsim

import (
	"slices"
	"testing"
)

// FuzzTrigramSet holds a profile's lazily built trigram set — the byte
// kernel on ASCII text — to the rune path on arbitrary input, invalid
// UTF-8 included: the same grams in the same order, the same hashes.
func FuzzTrigramSet(f *testing.F) {
	for _, s := range equivCorpus {
		f.Add(s)
	}
	f.Add(longRecords[0])
	f.Add("\x00\x7f## #")
	f.Add("##\xff#")
	f.Fuzz(func(t *testing.T, s string) {
		p := NewProfile(s)
		wantG, wantH := gramsOf(trigramSetRunes(p.Lower))
		gotG := make([]string, p.NumGrams())
		for i := range gotG {
			gotG[i] = p.Gram(i)
		}
		if !slices.Equal(gotG, wantG) || !slices.Equal(p.GramHashes(), wantH) {
			t.Fatalf("profile of %q: grams %q hashes %x, rune path %q %x", s, gotG, p.GramHashes(), wantG, wantH)
		}
	})
}
