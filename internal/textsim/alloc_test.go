//go:build !race

// Compiled out under -race: the race detector defeats sync.Pool, so
// AllocsPerRun means nothing there.

package textsim

import "testing"

// TestRatcliffZeroAlloc gates both forms of the Ratcliff/Obershelp kernel
// on a held scratch: once the pooled index, id map and span stack have
// grown to the input, neither ASCII nor non-ASCII pairs allocate.
func TestRatcliffZeroAlloc(t *testing.T) {
	sc := AcquireScratch()
	defer sc.Release()
	for _, in := range [][2]string{
		{longRecords[0], longRecords[1]},
		{"naïve résumé — déjà vu 北京大学 🙂", "Café Au Lait, résumé naive — 北京 大学 计算机"},
	} {
		a, b := in[0], in[1]
		run := func() {
			sc.RatcliffObershelp(a, b)
			sc.RatcliffExceeds(a, b, 0.5)
		}
		run() // grow the scratch
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("Ratcliff kernels on %q: %v allocs per pair, want 0", a, allocs)
		}
	}
}

// TestQGramJaccardPZeroAlloc gates the q-gram Jaccard kernel on warm
// profiles, ASCII and non-ASCII: the merge join over the built trigram
// sets allocates nothing.
func TestQGramJaccardPZeroAlloc(t *testing.T) {
	for _, in := range [][2]string{
		{longRecords[0], longRecords[1]},
		{"naïve résumé — déjà vu 北京大学", "Café Au Lait, résumé naive — 北京 大学"},
		{longRecords[0], "Café Au Lait, résumé naive"},
	} {
		a, b := newProfile(in[0], sharedInterner), newProfile(in[1], sharedInterner)
		QGramJaccardP(a, b) // build both trigram sets
		if allocs := testing.AllocsPerRun(100, func() { QGramJaccardP(a, b) }); allocs != 0 {
			t.Errorf("QGramJaccardP on %q: %v allocs per pair, want 0", in[0], allocs)
		}
	}
}

// TestMongeElkanSymZeroAlloc gates the symmetric Monge-Elkan kernel over
// cached token slices, ASCII and non-ASCII, once the pooled scratch has
// grown to the input.
func TestMongeElkanSymZeroAlloc(t *testing.T) {
	for _, in := range [][2]string{
		{longRecords[0], longRecords[1]},
		{"naïve résumé — déjà vu 北京大学", "Café Au Lait, résumé naive — 北京 大学"},
	} {
		ta, tb := Tokens(in[0]), Tokens(in[1])
		MongeElkanSymTokens(ta, tb) // grow the scratch
		if allocs := testing.AllocsPerRun(100, func() { MongeElkanSymTokens(ta, tb) }); allocs != 0 {
			t.Errorf("MongeElkanSymTokens on %q: %v allocs per pair, want 0", in[0], allocs)
		}
	}
}
