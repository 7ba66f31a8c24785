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
