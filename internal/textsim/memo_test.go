package textsim_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/textsim"
)

// directIDF is Weighter.IDF's formula, computed per call.
func directIDF(docCount, df int) float64 {
	return math.Log(1 + float64(docCount+1)/float64(df+1))
}

// TestIDFTableMatchesLog holds the memoised IDF to math.Log for every
// document frequency in the table and past its end, before and after
// observations change the document count, read in ascending and
// descending order so entries are filled both ways.
func TestIDFTableMatchesLog(t *testing.T) {
	n := textsim.IDFTableMax + 50
	toks := make([]string, n)
	counts := make([]int, n)
	for df := range toks {
		toks[df] = fmt.Sprintf("t%d", df)
		counts[df] = df
	}
	w, err := textsim.NewWeighterFromCounts(5000, toks, counts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ {
			for k := range toks {
				df := k
				if pass == 1 {
					df = n - 1 - k
				}
				want := counts[df]
				got := w.IDF(toks[df])
				if math.Float64bits(got) != math.Float64bits(directIDF(w.DocCount(), want)) {
					t.Fatalf("%s: IDF(%s) with df %d of %d docs = %v, want %v",
						stage, toks[df], want, w.DocCount(), got, directIDF(w.DocCount(), want))
				}
			}
		}
		if got, want := w.IDF("unseen"), directIDF(w.DocCount(), 0); got != want {
			t.Fatalf("%s: IDF(unseen) = %v, want %v", stage, got, want)
		}
	}
	check("from counts")
	w.Observe("t3 t700 fresh")
	counts[3]++
	counts[700]++
	check("after Observe")
	p := textsim.NewProfileCache().Get("t3 T1000 fresh")
	w.ObserveProfile(p)
	counts[3]++
	counts[1000]++
	check("after ObserveProfile")
	s := w.Snapshot()
	s.Observe("t4")
	if got, want := w.IDF("t4"), directIDF(w.DocCount(), counts[4]); got != want {
		t.Fatalf("a snapshot's Observe moved the original's IDF(t4): %v, want %v", got, want)
	}
	if got, want := s.IDF("t4"), directIDF(s.DocCount(), counts[4]+1); got != want {
		t.Fatalf("snapshot IDF(t4) = %v, want %v", got, want)
	}
	// A document count the table cannot index still weighs every token.
	small, _ := textsim.NewWeighterFromCounts(-3, []string{"a"}, []int{-1})
	if got := small.IDF("a"); math.Float64bits(got) != math.Float64bits(directIDF(-3, -1)) {
		t.Fatalf("IDF under a negative document count = %v, want %v", got, directIDF(-3, -1))
	}
}

// TestIDFConcurrentFirstUse reads one Weighter's IDF from several
// goroutines at once right after an observation, as serving workers that
// share an encoder do, so under -race the table's publication and its
// atomically filled entries are checked.
func TestIDFConcurrentFirstUse(t *testing.T) {
	w := textsim.NewWeighter()
	for i := 0; i < 300; i++ {
		w.Observe(fmt.Sprintf("doc %d shared w%d", i, i%7))
	}
	toks := []string{"doc", "shared", "w0", "w3", "unseen", "1", "299"}
	for round := 0; round < 3; round++ {
		w.Observe(fmt.Sprintf("round %d", round))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					tok := toks[(g+i)%len(toks)]
					w.IDF(tok)
				}
			}(g)
		}
		wg.Wait()
		dtoks, dcounts := w.ExportDocFreq()
		for _, tok := range toks {
			df := 0
			if i, ok := slices.BinarySearch(dtoks, tok); ok {
				df = dcounts[i]
			}
			if got, want := w.IDF(tok), directIDF(w.DocCount(), df); got != want {
				t.Fatalf("round %d: IDF(%s) = %v after concurrent first use, want %v", round, tok, got, want)
			}
		}
	}
}

// TestJoinedTrigramsMatchProfile holds the gram-only set of joined tokens
// to the trigram set a whole profile of the joined string builds, and
// QGramJaccardT over such sets to QGramJaccardP over the profiles, on the
// lowercased fields of aligned values of the benchmark pool and on hand
// cases with uppercase, non-ASCII and long text.
func TestJoinedTrigramsMatchProfile(t *testing.T) {
	type pair struct{ a, b []string }
	long := strings.Repeat("abcdefghij ", 40)
	pairs := []pair{
		{nil, nil},
		{[]string{""}, []string{"a"}},
		{[]string{"Sony", "WH-1000XM4"}, []string{"sony", "wh", "1000xm4"}},
		{[]string{"café", "crème"}, []string{"cafe", "creme"}},
		{strings.Fields(long), strings.Fields(long + "x")},
		{[]string{"北京", "大学"}, []string{"北京大学"}},
	}
	stride := 1
	if testing.Short() {
		stride = 8
	}
	n := 0
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		for _, p := range d.Pairs {
			if n++; n%stride != 0 {
				continue
			}
			for i := 0; i < len(p.Left.Values) && i < len(p.Right.Values); i++ {
				pairs = append(pairs, pair{
					strings.Fields(strings.ToLower(p.Left.Values[i])),
					strings.Fields(strings.ToLower(p.Right.Values[i])),
				})
			}
		}
	}
	cache := textsim.NewProfileCache()
	for _, pr := range pairs {
		ja, jb := textsim.JoinedTrigrams(pr.a), textsim.JoinedTrigrams(pr.b)
		pa, pb := cache.Get(strings.Join(pr.a, " ")), cache.Get(strings.Join(pr.b, " "))
		if got, want := textsim.GramsOf(ja), textsim.GramsOf(textsim.ProfileTrigrams(pa)); !slices.Equal(got, want) {
			t.Fatalf("JoinedTrigrams(%q) = %q, profile grams %q", pr.a, got, want)
		}
		got, want := textsim.QGramJaccardT(ja, jb), textsim.QGramJaccardP(pa, pb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QGramJaccardT(%q, %q) = %v, QGramJaccardP %v", pr.a, pr.b, got, want)
		}
	}
}

// TestObserveJoinedMatchesObserve holds ObserveJoined over the profiles
// of each pool record's values to Observe of the record serialised with
// the default separator: the same document count and the same exported
// table, on every eighth pair of the benchmark pool plus records with
// empty, repeated and non-ASCII values.
func TestObserveJoinedMatchesObserve(t *testing.T) {
	direct, joined := textsim.NewWeighter(), textsim.NewWeighter()
	cache := textsim.NewProfileCache()
	observe := func(vals []string) {
		direct.Observe(strings.Join(vals, ", "))
		parts := make([]*textsim.Profile, len(vals))
		for i, v := range vals {
			parts[i] = cache.Get(v)
		}
		joined.ObserveJoined(parts)
	}
	observe([]string{"a b a", "b c", "", "A"})
	observe([]string{"Café crème", "CAFÉ", "北京 大学"})
	observe([]string{"solo solo"})
	observe(nil)
	n := 0
	for _, d := range datasets.GenerateAll(eval.DatasetSeed) {
		for _, p := range d.Pairs {
			if n++; n%8 != 0 {
				continue
			}
			observe(p.Left.Values)
			observe(p.Right.Values)
		}
	}
	dt, dc := direct.ExportDocFreq()
	jt, jc := joined.ExportDocFreq()
	if direct.DocCount() != joined.DocCount() || !slices.Equal(dt, jt) || !slices.Equal(dc, jc) {
		t.Fatalf("ObserveJoined: %d docs, %d tokens; Observe: %d docs, %d tokens", joined.DocCount(), len(jt), direct.DocCount(), len(dt))
	}
}
