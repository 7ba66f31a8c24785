package lm

import (
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

func TestKnowsMonotoneCoverage(t *testing.T) {
	// Whatever a weaker model knows, a stronger one must also know (the
	// gate uses a single uniform draw per entry).
	entries := []string{"st", "vlb", "tv", "feat", "ipa", "norm:abc", "rare:kx-123"}
	for _, e := range entries {
		for c := 0.1; c < 1.0; c += 0.1 {
			if knows(e, c) && !knows(e, c+0.1) {
				t.Fatalf("knowledge not monotone in coverage for %q", e)
			}
		}
	}
}

func TestKnowsCoverageRate(t *testing.T) {
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if knows(strings.Repeat("x", 1+i%7)+string(rune('a'+i%26))+stringsFromInt(i), 0.7) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.67 || rate > 0.73 {
		t.Fatalf("knows(·, 0.7) pass rate %.3f", rate)
	}
}

func stringsFromInt(i int) string {
	return string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))
}

// TestKnowsAttendBoostsCoverage checks the attention gate on the two
// draws buildValEntry stores per identifier candidate: either passing
// gives coverage 1-(1-c)².
func TestKnowsAttendBoostsCoverage(t *testing.T) {
	single, double := 0, 0
	const n = 20000
	c := newTextCache(textsim.NewProfileCache())
	for i := 0; i < n; i++ {
		tok := "tok" + stringsFromInt(i) + stringsFromInt(i/1000)
		e := c.buildValEntry(tok)
		if len(e.identCands) != 1 || e.identCands[0].tok != tok {
			t.Fatalf("%q: identifier candidates %+v", tok, e.identCands)
		}
		c := e.identCands[0]
		if c.uA < 0.8 {
			single++
		}
		if c.uA < 0.8 || c.uB < 0.8 {
			double++
		}
	}
	// Double draw: 1-(1-0.8)^2 = 0.96.
	if rate := float64(double) / n; rate < 0.945 || rate > 0.975 {
		t.Fatalf("attention gate at 0.8: pass rate %.3f, want ≈ 0.96", rate)
	}
	if double <= single {
		t.Fatal("double draw did not boost coverage")
	}
}

func TestNormalizeTextCapable(t *testing.T) {
	caps := Capabilities{Normalization: 1, Semantics: 1}
	got := normalizeText("Main St. & 5th Ave.", caps)
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "street") || !strings.Contains(joined, "avenue") || !strings.Contains(joined, "and") {
		t.Fatalf("full-capability normalization missed abbreviations: %v", got)
	}
}

func TestNormalizeTextSplitsCompounds(t *testing.T) {
	caps := Capabilities{Normalization: 1, Semantics: 1}
	got := strings.Join(normalizeText("256gb drive", caps), " ")
	if !strings.Contains(got, "256") || !strings.Contains(got, "gigabyte") {
		t.Fatalf("compound token not split+normalized: %q", got)
	}
}

func TestNormalizeTextIncapable(t *testing.T) {
	weak := Capabilities{Normalization: 0, Semantics: 0}
	got := normalizeText("Main St.", weak)
	joined := strings.Join(got, " ")
	if strings.Contains(joined, "street") {
		t.Fatalf("zero-capability model normalized an abbreviation: %v", got)
	}
}

func TestSplitAlnum(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"256gb", "256 gb"},
		{"kx-12304", "kx 12304"},
		{"4.0", "4 0"},
		{"---", ""},
		{"plain", "plain"},
	}
	for _, c := range cases {
		got := strings.Join(splitAlnum(c.in), " ")
		if got != c.want {
			t.Errorf("splitAlnum(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestContrastConflict(t *testing.T) {
	profs := func(vals ...string) []*textsim.Profile {
		out := make([]*textsim.Profile, len(vals))
		for i, v := range vals {
			out[i] = textsim.Shared().Get(v)
		}
		return out
	}
	a := profs("office", "deluxe", "4")
	b := profs("office", "premium", "4")
	if !contrastConflictProfiles(a, b, 1.0) {
		t.Fatal("deluxe vs premium should conflict at full coverage")
	}
	if contrastConflictProfiles(a, b, 0.0) {
		t.Fatal("zero coverage should not detect contrast")
	}
	same := profs("office", "deluxe")
	if contrastConflictProfiles(a, same, 1.0) {
		t.Fatal("same edition should not conflict")
	}
}

func TestIsIdentifierToken(t *testing.T) {
	cases := []struct {
		tok  string
		want bool
	}{
		{"kx-12304", true}, // model number
		{"p1371", true},    // paper id
		{"0123", true},     // phone group
		{"1999", false},    // year
		{"12.99", false},   // price
		{"4.0", false},     // version (handled separately)
		{"225", false},     // short quantity
		{"hello", false},   // plain word
	}
	for _, c := range cases {
		if got := isIdentifierToken(c.tok); got != c.want {
			t.Errorf("isIdentifierToken(%q) = %v, want %v", c.tok, got, c.want)
		}
	}
}

func TestVersionTokens(t *testing.T) {
	versions := func(v string) []string {
		return newTextCache(textsim.NewProfileCache()).valEntryFor(v).versionToks
	}
	got := versions("Adobe Photoshop 4.0 win")
	if len(got) != 1 || got[0] != "4.0" {
		t.Fatalf("versionTokens = %v", got)
	}
	if len(versions("price is $12.99 today")) != 0 {
		t.Fatal("currency-prefixed decimals must not be versions")
	}
	if len(versions("no versions here")) != 0 {
		t.Fatal("plain words must not be versions")
	}
}

func TestEvidenceIdentifierMatchAndConflict(t *testing.T) {
	caps := GPT4.Zero
	idf := pretrainedWeighter()
	match := record.Pair{
		Left:  record.Record{Values: []string{"sony camera kx-12304 black"}},
		Right: record.Record{Values: []string{"sony camera kx-12304 silver"}},
	}
	ev := extractEvidence(sharedText, match, caps, idf)
	if ev.IdentifierMatch != 1 {
		t.Fatal("shared model number not detected")
	}
	conflictPair := record.Pair{
		Left:  record.Record{Values: []string{"sony camera kx-12304 black"}},
		Right: record.Record{Values: []string{"sony camera kx-99999 black"}},
	}
	ev = extractEvidence(sharedText, conflictPair, caps, idf)
	if ev.Conflict == 0 {
		t.Fatal("differing model numbers not flagged as conflict")
	}
}

func TestEvidenceYearConflict(t *testing.T) {
	caps := GPT4.Zero
	p := record.Pair{
		Left:  record.Record{Values: []string{"the last horizon", "1985"}},
		Right: record.Record{Values: []string{"the last horizon", "2003"}},
	}
	ev := extractEvidence(sharedText, p, caps, nil)
	if ev.YearConflict != 1 {
		t.Fatal("differing years on an aligned attribute not flagged")
	}
	same := record.Pair{
		Left:  record.Record{Values: []string{"the last horizon", "1985"}},
		Right: record.Record{Values: []string{"the last horizon", "1985"}},
	}
	if ev := extractEvidence(sharedText, same, caps, nil); ev.YearConflict != 0 {
		t.Fatal("equal years flagged as conflict")
	}
}

func TestEvidenceVersionConflict(t *testing.T) {
	caps := GPT4.Zero
	p := record.Pair{
		Left:  record.Record{Values: []string{"adobe photoshop 4.0 win"}},
		Right: record.Record{Values: []string{"adobe photoshop 5.5 win"}},
	}
	ev := extractEvidence(sharedText, p, caps, nil)
	if ev.VersionConflict != 1 || ev.VersionMatch != 0 {
		t.Fatalf("version conflict not detected: %+v", ev)
	}
	p.Right.Values[0] = "adobe photoshop 4.0 windows"
	ev = extractEvidence(sharedText, p, caps, nil)
	if ev.VersionMatch != 1 || ev.VersionConflict != 0 {
		t.Fatalf("version agreement not detected: %+v", ev)
	}
}

func TestAttrSimilarityMissingValues(t *testing.T) {
	val := sharedText.valEntryFor
	caps := GPT4.Zero
	if got := attrSimilarityE(sharedText, val(""), val(""), caps, nil); got != 0.5 {
		t.Fatalf("both-missing sim = %v, want 0.5", got)
	}
	if got := attrSimilarityE(sharedText, val("something"), val(""), caps, nil); got != 0.4 {
		t.Fatalf("one-missing sim = %v, want 0.4", got)
	}
}

func TestAttrSimilarityNumeric(t *testing.T) {
	val := sharedText.valEntryFor
	numerate := Capabilities{Numeracy: 1}
	if got := attrSimilarityE(sharedText, val("$99.00"), val("99 USD"), numerate, nil); got < 0.99 {
		t.Fatalf("numerate model should reconcile formats: %v", got)
	}
	innumerate := Capabilities{Numeracy: 0}
	if got := attrSimilarityE(sharedText, val("$99.00"), val("99 USD"), innumerate, nil); got > 0.6 {
		t.Fatalf("innumerate model should see format difference: %v", got)
	}
}

func TestDurationParsing(t *testing.T) {
	v, ok := parseLooseNumber("3:45")
	if !ok || v != 225 {
		t.Fatalf("parseLooseNumber(3:45) = %v, %v", v, ok)
	}
	if _, ok := parseLooseNumber("3:75"); ok {
		t.Fatal("invalid seconds accepted")
	}
}

func TestEncoderDeterministic(t *testing.T) {
	enc := NewEncoder(GPT2.Capacity)
	p := record.Pair{
		Left:  record.Record{ID: "a", Values: []string{"sony camera kx-1", "$10"}},
		Right: record.Record{ID: "b", Values: []string{"sony camera kx-1", "10 USD"}},
	}
	v1 := enc.Encode(p, record.SerializeOptions{})
	v2 := enc.Encode(p, record.SerializeOptions{})
	if len(v1.Idx) != len(v2.Idx) {
		t.Fatal("encoding not deterministic")
	}
	for i := range v1.Idx {
		if v1.Idx[i] != v2.Idx[i] || v1.Val[i] != v2.Val[i] {
			t.Fatal("encoding not deterministic")
		}
	}
}

func TestEncoderDim(t *testing.T) {
	enc := NewEncoder(BERT.Capacity)
	if enc.Dim() != numDenseFeatures+BERT.Capacity.HashWidth {
		t.Fatalf("Dim = %d", enc.Dim())
	}
	p := record.Pair{
		Left:  record.Record{Values: []string{"a b c"}},
		Right: record.Record{Values: []string{"a b d"}},
	}
	v := enc.Encode(p, record.SerializeOptions{})
	for _, idx := range v.Idx {
		if idx < 0 || idx >= enc.Dim() {
			t.Fatalf("feature index %d out of range", idx)
		}
	}
}

func TestEncoderPretrainingReducesNoise(t *testing.T) {
	// The same pair encoded by a strongly and a weakly pretrained encoder:
	// the dense evidence feature (index 0) must deviate less from the
	// capable engine's clean score for the stronger encoder.
	p := record.Pair{
		Left:  record.Record{ID: "x1", Values: []string{"golden dragon cafe", "main street"}},
		Right: record.Record{ID: "x2", Values: []string{"golden dragon cafe", "main st."}},
	}
	weakCap := BERT.Capacity
	strongCap := LLaMA32.Capacity
	weak := NewEncoder(weakCap).Encode(p, record.SerializeOptions{})
	strong := NewEncoder(strongCap).Encode(p, record.SerializeOptions{})
	// Locate dense feature 0 in both (first entry by construction).
	if weak.Idx[0] != 0 || strong.Idx[0] != 0 {
		t.Fatal("dense feature 0 not first")
	}
	// Noise magnitude bound: |noise| <= 0.55*(1-pretraining) (scale 1.1 ×
	// symmetric ±0.5 range).
	noiseBoundWeak := 0.55 * (1 - weakCap.Pretraining)
	noiseBoundStrong := 0.55 * (1 - strongCap.Pretraining)
	if noiseBoundStrong >= noiseBoundWeak {
		t.Fatal("capacity profiles do not order pretraining as expected")
	}
}

func TestPromptModelCapabilityLadder(t *testing.T) {
	// On a challenging but solvable pair set, the strongest model must not
	// do worse than the weakest (aggregate over many pairs).
	rng := stats.NewRNG(5)
	makePairs := func() ([]record.Pair, []bool) {
		var pairs []record.Pair
		var labels []bool
		for i := 0; i < 150; i++ {
			id := "kx-" + stringsFromInt(i*7)
			l := record.Record{ID: "l" + stringsFromInt(i), Values: []string{"sony camera " + id + " black", "$99.99"}}
			r := record.Record{ID: "r" + stringsFromInt(i), Values: []string{"SONY cam " + id + " blk", "99.99 USD"}}
			pairs = append(pairs, record.Pair{Left: l, Right: r})
			labels = append(labels, true)
			other := record.Record{ID: "n" + stringsFromInt(i), Values: []string{"sony camera kx-" + stringsFromInt(i*7+3) + " black", "$89.99"}}
			pairs = append(pairs, record.Pair{Left: l, Right: other})
			labels = append(labels, false)
		}
		return pairs, labels
	}
	accuracy := func(p Profile) float64 {
		pairs, labels := makePairs()
		m := NewPromptModel(p, rng.Split(p.Name))
		for _, pr := range pairs {
			m.ObserveCorpus(record.SerializeRecord(pr.Left, record.SerializeOptions{}))
			m.ObserveCorpus(record.SerializeRecord(pr.Right, record.SerializeOptions{}))
		}
		preds := m.MatchBatch(pairs, record.SerializeOptions{})
		correct := 0
		for i := range preds {
			if preds[i] == labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(preds))
	}
	strong := accuracy(GPT4)
	weak := accuracy(GPT35Turbo)
	if strong < weak-0.02 {
		t.Fatalf("GPT-4 accuracy %.3f below GPT-3.5 %.3f", strong, weak)
	}
	if strong < 0.85 {
		t.Fatalf("GPT-4 accuracy %.3f too low on a solvable task", strong)
	}
}

func TestDemoStrategyStrings(t *testing.T) {
	if DemoNone.String() != "none" || DemoHandPicked.String() != "hand-picked" || DemoRandom.String() != "random-selected" {
		t.Fatal("demo strategy names wrong")
	}
}

func TestProfilesRegistry(t *testing.T) {
	all := []Profile{
		BERT, GPT2, DeBERTa, T5, LLaMA32,
		LLaMA213B, Mixtral8x7B, SOLAR, Beluga2,
		GPT35Turbo, GPT4oMini, GPT4,
	}
	seen := make(map[string]bool)
	open := 0
	for _, p := range all {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.ParamsMillions <= 0 {
			t.Errorf("%s has no parameter count", p.Name)
		}
		if p.OpenWeight {
			open++
		}
	}
	if open != 9 {
		t.Fatalf("%d open-weight profiles, want 9 (Table 5 rows)", open)
	}
}

func TestAdaptiveThresholdSeparatesBimodal(t *testing.T) {
	var scores []float64
	for i := 0; i < 800; i++ {
		scores = append(scores, 0.1+0.001*float64(i%50))
	}
	for i := 0; i < 200; i++ {
		scores = append(scores, 0.85+0.001*float64(i%50))
	}
	thr := adaptiveThreshold(scores)
	if thr <= 0.2 || thr >= 0.85 {
		t.Fatalf("threshold %.3f outside the gap", thr)
	}
}

func TestAdaptiveThresholdDegenerate(t *testing.T) {
	if thr := adaptiveThreshold(nil); thr != 0.5 {
		t.Fatalf("empty scores threshold = %v", thr)
	}
	same := []float64{0.4, 0.4, 0.4}
	thr := adaptiveThreshold(same)
	if thr <= 0.4-1e-9 || thr > 0.45 {
		t.Fatalf("constant scores threshold = %v", thr)
	}
}
