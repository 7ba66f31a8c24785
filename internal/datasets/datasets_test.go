package datasets

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/stats"
)

// publishedStats is Table 1 of the paper; the generators must reproduce it
// exactly.
var publishedStats = []struct {
	name   string
	domain string
	attrs  int
	pos    int
	neg    int
}{
	{"ABT", "web product", 3, 1028, 8547},
	{"WDC", "web product", 3, 2250, 7992},
	{"DBAC", "citation", 4, 2220, 10143},
	{"DBGO", "citation", 4, 5347, 23360},
	{"FOZA", "restaurant", 6, 110, 836},
	{"ZOYE", "restaurant", 7, 90, 354},
	{"AMGO", "software", 3, 1167, 10293},
	{"BEER", "drink", 4, 68, 382},
	{"ITAM", "music", 8, 132, 407},
	{"ROIM", "movie", 5, 190, 410},
	{"WAAM", "electronics", 5, 962, 9280},
}

func TestTable1MatchesPaper(t *testing.T) {
	got := Table1()
	if len(got) != len(publishedStats) {
		t.Fatalf("Table1 has %d rows, want %d", len(got), len(publishedStats))
	}
	for i, want := range publishedStats {
		g := got[i]
		if g.Name != want.name || g.Domain != want.domain ||
			g.Attrs != want.attrs || g.Pos != want.pos || g.Neg != want.neg {
			t.Errorf("row %d: got %+v, want %+v", i, g, want)
		}
	}
}

func TestGeneratedCountsMatchTable1(t *testing.T) {
	for _, want := range publishedStats {
		d := MustGenerate(want.name, 42)
		if d.Positives() != want.pos || len(d.Pairs)-d.Positives() != want.neg {
			t.Errorf("%s: %d pos / %d neg, want %d / %d",
				want.name, d.Positives(), len(d.Pairs)-d.Positives(), want.pos, want.neg)
		}
		if d.Schema.NumAttrs() != want.attrs {
			t.Errorf("%s: %d attrs, want %d", want.name, d.Schema.NumAttrs(), want.attrs)
		}
		for _, p := range d.Pairs {
			if len(p.Left.Values) != want.attrs || len(p.Right.Values) != want.attrs {
				t.Fatalf("%s: record arity mismatch", want.name)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate("BEER", 7)
	b := MustGenerate("BEER", 7)
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatal("different sizes for same seed")
	}
	for i := range a.Pairs {
		if record.SerializeRecord(a.Pairs[i].Left, record.SerializeOptions{}) !=
			record.SerializeRecord(b.Pairs[i].Left, record.SerializeOptions{}) {
			t.Fatalf("pair %d differs between same-seed generations", i)
		}
	}
}

func TestGenerateSeedSensitive(t *testing.T) {
	a := MustGenerate("BEER", 7)
	b := MustGenerate("BEER", 8)
	same := 0
	for i := range a.Pairs {
		if record.SerializeRecord(a.Pairs[i].Left, record.SerializeOptions{}) ==
			record.SerializeRecord(b.Pairs[i].Left, record.SerializeOptions{}) {
			same++
		}
	}
	if same == len(a.Pairs) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("NOPE", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestDatasetsDisjoint(t *testing.T) {
	ds := GenerateAll(42)
	if overlaps := VerifyDisjoint(ds); len(overlaps) > 0 {
		t.Fatalf("datasets share tuples: %v", overlaps[:min(3, len(overlaps))])
	}
}

func TestPrimaryAttributeNeverMissing(t *testing.T) {
	for _, d := range GenerateAll(42) {
		for i, p := range d.Pairs {
			if strings.TrimSpace(p.Left.Values[0]) == "" || strings.TrimSpace(p.Right.Values[0]) == "" {
				t.Fatalf("%s pair %d has an empty primary attribute", d.Name, i)
			}
		}
	}
}

func TestPositivesShareEntity(t *testing.T) {
	// Positives must be textually closer than random negatives on average:
	// a sanity check that view corruption has not destroyed entity identity.
	for _, name := range []string{"FOZA", "DBAC", "BEER"} {
		d := MustGenerate(name, 42)
		var posSim, negSim float64
		var nPos, nNeg int
		for _, p := range d.Pairs {
			l := record.SerializeRecord(p.Left, record.SerializeOptions{})
			r := record.SerializeRecord(p.Right, record.SerializeOptions{})
			s := tokenOverlapRatio(l, r)
			if p.Match {
				posSim += s
				nPos++
			} else {
				negSim += s
				nNeg++
			}
		}
		if posSim/float64(nPos) <= negSim/float64(nNeg) {
			t.Errorf("%s: positives not more similar than negatives on average", name)
		}
	}
}

func tokenOverlapRatio(a, b string) float64 {
	as := strings.Fields(strings.ToLower(a))
	bs := strings.Fields(strings.ToLower(b))
	set := make(map[string]bool)
	for _, t := range as {
		set[t] = true
	}
	shared := 0
	for _, t := range bs {
		if set[t] {
			shared++
		}
	}
	if len(as)+len(bs) == 0 {
		return 0
	}
	return 2 * float64(shared) / float64(len(as)+len(bs))
}

func TestSharedDomain(t *testing.T) {
	for _, name := range []string{"ABT", "WDC", "DBAC", "DBGO", "FOZA", "ZOYE"} {
		if !SharedDomain(name) {
			t.Errorf("%s should share its domain", name)
		}
	}
	for _, name := range []string{"AMGO", "BEER", "ITAM", "ROIM", "WAAM"} {
		if SharedDomain(name) {
			t.Errorf("%s should not share its domain", name)
		}
	}
	if SharedDomain("UNKNOWN") {
		t.Error("unknown dataset cannot share a domain")
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	want := []string{"ABT", "WDC", "DBAC", "DBGO", "FOZA", "ZOYE", "AMGO", "BEER", "ITAM", "ROIM", "WAAM"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("Names() order = %v", names)
		}
	}
}

func TestCorruptValuePreservesNonEmpty(t *testing.T) {
	rng := stats.NewRNG(1)
	prof := CorruptionProfile{Abbreviate: 0.5, Typo: 0.3, DropToken: 0.3, CaseFlip: 0.2, Reorder: 0.3}
	for i := 0; i < 200; i++ {
		out := corruptValue("golden dragon palace restaurant", prof, rng.Split("c"+strconv.Itoa(i)))
		if strings.TrimSpace(out) == "" {
			t.Fatal("corruption emptied a value without MissingValue set")
		}
	}
}

func TestCorruptValueMissing(t *testing.T) {
	rng := stats.NewRNG(2)
	prof := CorruptionProfile{MissingValue: 1}
	if corruptValue("anything", prof, rng) != "" {
		t.Fatal("MissingValue=1 should blank the value")
	}
}

func TestApplyTypoSkipsDigits(t *testing.T) {
	rng := stats.NewRNG(3)
	for i := 0; i < 50; i++ {
		if got := applyTypo("kx-12304", rng); got != "kx-12304" {
			t.Fatalf("typo altered identifier: %q", got)
		}
	}
}

func TestReformatNumberPreservesYears(t *testing.T) {
	rng := stats.NewRNG(4)
	for i := 0; i < 50; i++ {
		got := reformatNumber("1999", rng.Split("y"+strconv.Itoa(i)))
		if got != "1999" {
			t.Fatalf("year reformatted to %q", got)
		}
	}
}

func TestInitialsStyle(t *testing.T) {
	got := initialsStyle("john smith and mei chen")
	if got != "j. smith, m. chen" {
		t.Fatalf("initialsStyle = %q", got)
	}
}

func TestRewritePhone(t *testing.T) {
	if got := rewritePhone("213-555-0123"); got != "(213) 555-0123" {
		t.Fatalf("rewritePhone = %q", got)
	}
	if got := rewritePhone("not-a-phone-number"); got != "not-a-phone-number" {
		t.Fatalf("malformed phone altered: %q", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGenerateAllParallelMatchesSequential(t *testing.T) {
	seq := GenerateAllParallel(7, 1)
	par := GenerateAllParallel(7, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel dataset generation differs from sequential")
	}
}
