package lm

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/textsim"
)

// TestLazyGramsConcurrentFirstUse has 8 goroutines make the first use of
// the trigram sets of fresh profiles and of fresh normalised-text entries
// at once, through QGramJaccardP, Gram and attrSimilarityE: every
// goroutine must see the same results, and profiles built apart must
// score the same. Under -race this pins the compare-and-swap publication
// of both lazy fields.
func TestLazyGramsConcurrentFirstUse(t *testing.T) {
	caps := Capabilities{Normalization: 0.9, Semantics: 0.7, Numeracy: 0.5, Attention: 0.6, Robustness: 0.4}
	// Caches of this run's own, so no profile or entry below starts with
	// its trigram set.
	const n = 24
	texts := make([]string, n)
	profs := make([]*textsim.Profile, n)
	vals := make([]*valEntry, n)
	fresh := textsim.NewProfileCache()
	tc := newTextCache(textsim.NewProfileCache())
	for i := range texts {
		texts[i] = fmt.Sprintf("Lazy First-Use %d: Sony WH-%dXM4 St. café, rev %d #%d", i, 1000+i%3, i%5, i*7919)
		profs[i] = fresh.Get(texts[i])
		vals[i] = tc.valEntryFor(texts[i])
		if e := tc.normEntryFor(vals[i].trimmed, caps); e.joined.Load() != nil {
			t.Fatalf("norm entry of %q already holds its joined profile", texts[i])
		}
	}
	const workers = 8
	results := make([][]string, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			var out []string
			for k := 0; k < n; k++ {
				i := (k + w) % n // staggered so first uses collide
				j := (i + 1) % n
				grams := make([]string, profs[i].NumGrams())
				for g := range grams {
					grams[g] = profs[i].Gram(g)
				}
				out = append(out, fmt.Sprintf("%d q=%v a=%v g=%s", i,
					textsim.QGramJaccardP(profs[i], profs[j]),
					attrSimilarityE(tc, vals[i], vals[j], caps, nil),
					strings.Join(grams, "|")))
			}
			slices.Sort(out)
			results[w] = out
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(results[w], results[0]) {
			t.Fatalf("goroutine %d saw different results from goroutine 0", w)
		}
	}
	// Profiles built apart from the raced ones must score the same.
	apart := textsim.NewProfileCache()
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if got, want := textsim.QGramJaccardP(profs[i], profs[j]), textsim.QGramJaccardP(apart.Get(texts[i]), apart.Get(texts[j])); got != want {
			t.Errorf("QGramJaccardP(%d, %d) = %v, on profiles built apart %v", i, j, got, want)
		}
	}
}
