package lm

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// composeCaps are the normalisation capabilities the composition is held
// at: Ditto's and AnyMatch[LLaMA3.2]'s encoders, and the two extremes,
// under which every field is kept raw (so the separator's comma reaches
// every non-final value's last field) or none is.
var composeCaps = []Capabilities{
	NewEncoder(BERT.Capacity).normCaps(),
	NewEncoder(LLaMA32.Capacity).normCaps(),
	{Normalization: 0, Semantics: 0.5},
	{Normalization: 1, Semantics: 1},
}

// checkRecordEntries holds recordEntries and recordProfile, which
// compose from the value entries of their caches, to the direct
// derivations of the serialised record: a profile built from the text
// alone by direct, and normalizeText of the text. tcs holds one cache for
// each of the first len(tcs) composeCaps entries, and profs one more for
// recordProfile.
func checkRecordEntries(t *testing.T, tcs []*textCache, profs *textCache, direct *textsim.ProfileCache, r record.Record, opts record.SerializeOptions) {
	t.Helper()
	text := record.SerializeRecord(r, opts)
	want := direct.Get(text)
	if p := profs.recordProfile(r, opts, text); !sameProfile(p, want) {
		t.Fatalf("recordProfile(%q) = %s, want %s", text, profileString(p), profileString(want))
	}
	for i, caps := range composeCaps[:len(tcs)] {
		prof, norm := tcs[i].recordEntries(r, opts, text, caps)
		if !sameProfile(prof, want) {
			t.Fatalf("recordEntries(%q) profile = %s, want %s", text, profileString(prof), profileString(want))
		}
		toks := normalizeText(text, caps)
		if !slices.Equal(norm.sorted, sortedUniqueTokens(toks)) {
			t.Fatalf("recordEntries(%q) under %+v: sorted normalised %q, want %q", text, caps, norm.sorted, sortedUniqueTokens(toks))
		}
		if composes(opts) {
			var vals []string
			if got := tcs[i].appendJoinedNorm(nil, record.AppendOrdered(vals, r, opts), caps); !slices.Equal(got, toks) {
				t.Fatalf("appendJoinedNorm(%q) under %+v = %q, want %q", text, caps, got, toks)
			}
		}
		// A second call is served from the cache.
		if p2, n2 := tcs[i].recordEntries(r, opts, text, caps); p2 != prof || n2 != norm {
			t.Fatalf("recordEntries(%q) is not memoised", text)
		}
	}
}

// freshCaches returns an empty text cache for each of the first n
// composeCaps entries, one more, and an empty profile cache.
func freshCaches(n int) ([]*textCache, *textCache, *textsim.ProfileCache) {
	tcs := make([]*textCache, n)
	for i := range tcs {
		tcs[i] = newTextCache(textsim.NewProfileCache())
	}
	return tcs, newTextCache(textsim.NewProfileCache()), textsim.NewProfileCache()
}

func profileString(p *textsim.Profile) string {
	return fmt.Sprintf("{Lower %q Tokens %q Uniq %q SortedIDs %v Num %v IsNum %v}", p.Lower, p.Tokens, p.Uniq, p.SortedIDs, p.Num, p.IsNum)
}

// sameProfile compares every field of two profiles; the trigram sets
// follow from Lower.
func sameProfile(a, b *textsim.Profile) bool {
	return a.Raw == b.Raw && a.Lower == b.Lower &&
		slices.Equal(a.Tokens, b.Tokens) && slices.Equal(a.Uniq, b.Uniq) &&
		slices.Equal(a.SortedIDs, b.SortedIDs) &&
		math.Float64bits(a.Num) == math.Float64bits(b.Num) && a.IsNum == b.IsNum
}

// TestRecordEntriesPool holds the composed record profile and normalised
// entry to the direct ones for every distinct record of the benchmark
// pool, in schema order and under one shuffled column order per
// dataset, at Ditto's capabilities and at the all-raw extreme. -short
// takes every eighth record.
func TestRecordEntriesPool(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	rng := stats.NewRNG(11)
	seen := map[string]bool{}
	n, checked := 0, 0
	for _, d := range benchmarkPool() {
		orders := []record.SerializeOptions{{}, {ColumnOrder: rng.Perm(len(d.Schema.Names))}}
		tcs, profs, direct := freshCaches(2)
		for _, p := range d.Pairs {
			for _, r := range []record.Record{p.Left, p.Right} {
				for _, opts := range orders {
					text := record.SerializeRecord(r, opts)
					if seen[text] {
						continue
					}
					seen[text] = true
					if n++; n%stride != 0 {
						continue
					}
					checkRecordEntries(t, tcs, profs, direct, r, opts)
					// Fresh caches now and then keep the live heap, and
					// with it the collector's work, small.
					if checked++; checked%2048 == 0 {
						tcs, profs, direct = freshCaches(2)
					}
				}
			}
		}
	}
	if checked < 100000/stride {
		t.Fatalf("checked only %d records", checked)
	}
}

// TestRecordEntriesHandCases covers the boundaries the pool may not: a
// value ending in punctuation or whitespace (an ASCII and a non-breaking
// space), empty and blank values, non-ASCII text, invalid UTF-8, one
// value, no values, a column order that drops and repeats columns, and
// separators other than the default, whose entries are derived from the
// text instead of composed.
func TestRecordEntriesHandCases(t *testing.T) {
	recs := [][]string{
		{"Sony WH-1000XM4,", "black."},
		{"abc ", "def"},
		{"abc ", "def"},
		{"", "b", ""},
		{"  ", "x"},
		{"a", "", "", "b"},
		{"Café Crème", "İstanbul Straße", "北京 大学"},
		{"ab\xe2\x82", "\xac cd", "\xff"},
		{"st.", "ave", "(213) 555-0123"},
		{"$1,299.99", "3:45", "1994"},
		{"only"},
		{},
		{"a-b-c!", "?", "..."},
	}
	orders := [][]int{nil, {2, 0, 1}, {1, 1, 5, -1}}
	seps := []string{"", ", ", " | ", "; ", "x", "∙"}
	for _, vals := range recs {
		r := record.Record{ID: "r", Values: vals}
		for _, o := range orders {
			for _, sep := range seps {
				tcs, profs, direct := freshCaches(len(composeCaps))
				checkRecordEntries(t, tcs, profs, direct, r, record.SerializeOptions{ColumnOrder: o, Separator: sep})
			}
		}
	}
}

// TestCutsetTrims holds the prebuilt cutsets to strings.Trim with the
// cutset strings they replace.
func TestCutsetTrims(t *testing.T) {
	inputs := []string{
		"", ",", "...", "abc", "(abc)", "\"x\",", "$5", "€5", "5€", "£5£", "€£$", "a€b",
		"\xe2\x82", "\xe2\x82\xac\xe2", "x\xc2\xa3", "\xa3", "[v1.2]", "é.", ".é", "€€x€€",
	}
	for _, d := range benchmarkPool()[:2] {
		for _, p := range d.Pairs[:200] {
			for _, v := range p.Left.Values {
				inputs = append(inputs, strings.Fields(strings.ToLower(v))...)
			}
		}
	}
	for _, s := range inputs {
		if got, want := normCut.trim(s), strings.Trim(s, ".,;:!?\"'()[]"); got != want {
			t.Errorf("normCut.trim(%q) = %q, want %q", s, got, want)
		}
		if got, want := versionCut.trim(s), strings.Trim(s, ",;:!?\"'()[]$"); got != want {
			t.Errorf("versionCut.trim(%q) = %q, want %q", s, got, want)
		}
		if got, want := trimIdent(s), strings.Trim(s, ",;:!?\"'()[]$€£"); got != want {
			t.Errorf("trimIdent(%q) = %q, want %q", s, got, want)
		}
	}
}

// refParseLooseNumber is parseLooseNumber without the early refusal.
func refParseLooseNumber(s string) (float64, bool) {
	clean := strings.TrimSpace(strings.ToLower(s))
	clean = strings.TrimLeft(clean, "$€£ ")
	clean = strings.ReplaceAll(clean, ",", "")
	for _, suffix := range []string{" usd", "usd", " dollars", "%", " min", " minutes"} {
		clean = strings.TrimSuffix(clean, suffix)
	}
	clean = strings.TrimSpace(clean)
	if clean == "" {
		return 0, false
	}
	if mins, secs, ok := parseDuration(clean); ok {
		return float64(mins*60 + secs), true
	}
	v, err := strconv.ParseFloat(clean, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// TestParseLooseNumberRefusal holds parseLooseNumber's early refusal to
// the full parse on every value of the pool's first datasets and on
// text whose first parseable byte follows commas and spaces.
func TestParseLooseNumberRefusal(t *testing.T) {
	inputs := []string{
		"", ",", ", ,5", " , ,7 usd", "$ , 1,299", "usd", "5 usd", "x%", "%", "3:45", "+3:45",
		"-2", ".5", "inf", "NaN", "1e3", ",,x", " 5", "€,5", " min", "12 minutes", "1,a",
	}
	for _, d := range benchmarkPool() {
		for _, p := range d.Pairs[:100] {
			inputs = append(inputs, p.Left.Values...)
			inputs = append(inputs, p.Right.Values...)
		}
	}
	for _, s := range inputs {
		gv, gok := parseLooseNumber(s)
		wv, wok := refParseLooseNumber(s)
		if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Errorf("parseLooseNumber(%q) = %v, %v; full parse %v, %v", s, gv, gok, wv, wok)
		}
	}
}

// TestNextFieldMatchesFields holds the field scanner to strings.Fields.
func TestNextFieldMatchesFields(t *testing.T) {
	inputs := []string{
		"", " ", "a", " a  b\\t", "a b\u0085c", "x y　", "\xff \xe2\x82 z", "​zero-width",
		"tab\tnew\nline\rcr\vvt\ffeed", "北京 大学 ", "  lead", "trail  ",
	}
	for _, d := range benchmarkPool()[:3] {
		for _, p := range d.Pairs[:100] {
			inputs = append(inputs, p.Left.Values...)
		}
	}
	for _, s := range inputs {
		var got []string
		for f, i := nextField(s, 0); f != ""; f, i = nextField(s, i) {
			got = append(got, f)
		}
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("nextField over %q = %q, strings.Fields %q", s, got, want)
		}
	}
}
