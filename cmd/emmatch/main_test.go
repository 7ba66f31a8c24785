package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/matchers"
	"repro/internal/obs"
)

func TestMatcherRegistryKnownNames(t *testing.T) {
	cases := []struct {
		name     string
		training bool
	}{
		{"stringsim", false},
		{"zeroer", false},
		{"ditto", true},
		{"unicorn", true},
		{"anymatch-gpt2", true},
		{"anymatch-t5", true},
		{"anymatch-llama", true},
		{"jellyfish", false},
		{"mixtral", false},
		{"solar", false},
		{"beluga2", false},
		{"gpt-3.5-turbo", false},
		{"gpt-4o-mini", false},
		{"gpt-4", false},
	}
	for _, c := range cases {
		m, needsTraining, err := matchers.ByName(c.name)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if m == nil || m.Name() == "" {
			t.Errorf("%s: unusable matcher", c.name)
		}
		if needsTraining != c.training {
			t.Errorf("%s: needsTraining=%v, want %v", c.name, needsTraining, c.training)
		}
	}
	// Case-insensitive resolution.
	if _, _, err := matchers.ByName("GPT-4"); err != nil {
		t.Error("matcher names should be case-insensitive")
	}
	if _, _, err := matchers.ByName("nope"); err == nil {
		t.Error("unknown matcher should error")
	}
}

func TestRunOnPairFile(t *testing.T) {
	dir := t.TempDir()
	pairPath := filepath.Join(dir, "pairs.csv")
	csv := strings.Join([]string{
		"left_name,left_price,right_name,right_price,label",
		"golden dragon cafe,12,GOLDEN dragon cafe,12.00,1",
		"golden dragon cafe,12,blue bistro downtown,44,0",
		"iron horse tavern,30,iron horse tavern,30,1",
	}, "\n")
	if err := os.WriteFile(pairPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.csv")
	tracePath := filepath.Join(dir, "trace.jsonl")
	if err := run(config{pairsPath: pairPath, outPath: outPath, matcher: "gpt-4", maxCands: 5, seed: 1, parallel: 1, tracePath: tracePath}); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "golden") {
		t.Fatalf("output file content:\n%s", out)
	}

	// -trace must emit a parseable, well-nested JSONL trace with the match
	// root span and the matcher's stage spans.
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	recs, err := obs.ReadJSONL(tf)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckNesting(recs); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, r := range recs {
		byName[r.Name]++
	}
	if byName["match"] != 1 || byName["prompt"] == 0 {
		t.Fatalf("trace spans = %v, want one match root and prompt stages", byName)
	}
}

func TestRunOnRelations(t *testing.T) {
	dir := t.TempDir()
	left := filepath.Join(dir, "left.csv")
	right := filepath.Join(dir, "right.csv")
	os.WriteFile(left, []byte("id,name,city\na1,golden dragon palace,berlin\na2,iron horse tavern,paris\n"), 0o644)
	os.WriteFile(right, []byte("id,name,city\nb1,GOLDEN dragon palace,berlin\nb2,blue bistro,rome\n"), 0o644)
	if err := run(config{leftPath: left, rightPath: right, matcher: "stringsim", maxCands: 5, seed: 1, parallel: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresInput(t *testing.T) {
	if err := run(config{matcher: "gpt-4", maxCands: 5, seed: 1, parallel: 1}); err == nil {
		t.Fatal("missing inputs should error")
	}
}

func TestRunUnknownMatcher(t *testing.T) {
	pairPath := filepath.Join(t.TempDir(), "pairs.csv")
	if err := os.WriteFile(pairPath, []byte("left_name,right_name\na,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(config{pairsPath: pairPath, matcher: "nope", maxCands: 5, seed: 1, parallel: 1})
	if err == nil || !strings.Contains(err.Error(), `unknown matcher "nope"`) {
		t.Fatalf("unknown matcher: err = %v", err)
	}
}

// TestParseFlags covers every emmatch flag once, and the defaults.
func TestParseFlags(t *testing.T) {
	got, err := parseFlags([]string{
		"-left", "a.csv", "-right", "b.csv", "-pairs", "p.csv", "-out", "o.csv",
		"-matcher", "ditto", "-candidates", "7", "-seed", "9", "-parallel", "2",
		"-timeout", "3s", "-trace", "t.jsonl", "-metrics-dump",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		leftPath: "a.csv", rightPath: "b.csv", pairsPath: "p.csv", outPath: "o.csv",
		matcher: "ditto", maxCands: 7, seed: 9, parallel: 2,
		timeout: 3 * time.Second, tracePath: "t.jsonl", metricsDump: true,
	}
	if got != want {
		t.Fatalf("parseFlags = %+v, want %+v", got, want)
	}
	def, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (config{matcher: "gpt-4", maxCands: 10, seed: 1}); def != want {
		t.Fatalf("defaults = %+v, want %+v", def, want)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
