package textsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/record"
	"repro/internal/textsim"
)

// poolTexts returns every distinct attribute value and every distinct
// schema-order serialisation of the records of the 11 benchmark datasets,
// in first-seen order.
var poolTexts = sync.OnceValues(func() (values, records []string) {
	seenV, seenR := map[string]bool{}, map[string]bool{}
	add := func(r record.Record) {
		for _, v := range r.Values {
			if !seenV[v] {
				seenV[v] = true
				values = append(values, v)
			}
		}
		s := record.SerializeRecord(r, record.SerializeOptions{})
		if !seenR[s] {
			seenR[s] = true
			records = append(records, s)
		}
	}
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		for _, p := range d.Pairs {
			add(p.Left)
			add(p.Right)
		}
	}
	return values, records
})

// TestTrigramKernelMatchesRunes holds every profile's trigram set to the
// rune path — the grams in the same order — over every
// distinct attribute value and schema-order serialisation of the 11
// datasets, plus random ASCII text with control bytes and the pad
// character. ASCII text takes the byte kernel, so this is the byte kernel
// against the rune path; the rest checks the dispatch. -short takes every
// eighth pool text.
func TestTrigramKernelMatchesRunes(t *testing.T) {
	values, records := poolTexts()
	var texts []string
	stride := 1
	if testing.Short() {
		stride = 8
	}
	for i, s := range append(slices.Clip(values), records...) {
		if i%stride == 0 {
			texts = append(texts, s)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(300))
		for j := range b {
			b[j] = byte(rng.Intn(0x80))
			if rng.Intn(8) == 0 {
				b[j] = '#'
			}
		}
		texts = append(texts, string(b))
	}
	asciiTexts := 0
	for _, s := range texts {
		p := textsim.NewProfileCache().Get(s)
		if textsim.IsASCII(p.Lower) {
			asciiTexts++
		}
		wantG := textsim.TrigramsRunes(p.Lower)
		if n := p.NumGrams(); n != len(wantG) {
			t.Fatalf("%q: %d grams, rune path %d", s, n, len(wantG))
		}
		for i, g := range wantG {
			if p.Gram(i) != g {
				t.Fatalf("%q: gram %d is %q, rune path %q", s, i, p.Gram(i), g)
			}
		}
	}
	if asciiTexts < len(texts)*9/10 {
		t.Errorf("only %d of %d texts are ASCII: the byte kernel is barely covered", asciiTexts, len(texts))
	}
}

// TestObserveCachesNoProfile checks that corpus observation builds no
// profile in the shared cache and no trigram set.
func TestObserveCachesNoProfile(t *testing.T) {
	_, before := textsim.Shared().Stats()
	built := textsim.GramSetsBuilt()
	w := textsim.NewWeighter()
	for i := 0; i < 100; i++ {
		w.Observe(fmt.Sprintf("Corpus Document %d, never profiled %d", i, i%7))
	}
	if _, got := textsim.Shared().Stats(); got != before {
		t.Errorf("Observe built %d profiles in the shared cache, want 0", got-before)
	}
	if got := textsim.GramSetsBuilt() - built; got != 0 {
		t.Errorf("Observe built %d trigram sets, want 0", got)
	}
}

// TestBlockingBuildsNoGramSet checks that token blocking, which reads
// only tokens, builds no trigram set.
func TestBlockingBuildsNoGramSet(t *testing.T) {
	d := datasets.GenerateAll(eval.DatasetSeed)[0]
	var left, right []record.Record
	for _, p := range d.Pairs[:min(300, len(d.Pairs))] {
		left = append(left, p.Left)
		right = append(right, p.Right)
	}
	built := textsim.GramSetsBuilt()
	pairs, _ := blocking.New(blocking.DefaultConfig()).CandidatePairsStats(left, right)
	if len(pairs) == 0 {
		t.Fatal("blocking produced no candidates")
	}
	if got := textsim.GramSetsBuilt() - built; got != 0 {
		t.Errorf("CandidatePairsStats built %d trigram sets, want 0", got)
	}
}

// TestObserveMatchesProfile holds Observe on raw text to ObserveProfile on
// the text's profile over every pool record: equal document counts and
// equal document-frequency tables.
func TestObserveMatchesProfile(t *testing.T) {
	_, records := poolTexts()
	byText, byProfile := textsim.NewWeighter(), textsim.NewWeighter()
	for _, s := range records {
		byText.Observe(s)
		byProfile.ObserveProfile(textsim.NewProfileCache().Get(s))
	}
	if a, b := byText.DocCount(), byProfile.DocCount(); a != b || a != len(records) {
		t.Fatalf("DocCount: Observe %d, ObserveProfile %d, want %d", a, b, len(records))
	}
	ta, ca := byText.ExportDocFreq()
	tb, cb := byProfile.ExportDocFreq()
	if !slices.Equal(ta, tb) || !slices.Equal(ca, cb) {
		t.Fatalf("document-frequency tables differ: %d vs %d tokens", len(ta), len(tb))
	}
}
