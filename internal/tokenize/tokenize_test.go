package tokenize

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestWordsSplitting(t *testing.T) {
	tk := New()
	got := tk.Words("Hello, World! $12.99")
	want := []string{"hello", ",", "world", "!", "$", "12", ".", "99"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestCommonWordsStayWhole(t *testing.T) {
	tk := New()
	toks := tk.Tokens("the restaurant description")
	for _, tok := range toks {
		if tok == "the" || tok == "restaurant" || tok == "description" {
			continue
		}
		if !strings.HasPrefix(tok, "##") && len(tok) > maxPiece {
			t.Fatalf("unexpected long token %q in %v", tok, toks)
		}
	}
	// "restaurant" (10 letters) is in the common list and must not chunk.
	found := false
	for _, tok := range toks {
		if tok == "restaurant" {
			found = true
		}
	}
	if !found {
		t.Fatalf("common word chunked: %v", toks)
	}
}

func TestLongWordsChunked(t *testing.T) {
	tk := New()
	toks := tk.Tokens("supercalifragilistic")
	if len(toks) < 3 {
		t.Fatalf("long word should chunk into several pieces: %v", toks)
	}
	if toks[0] != "superc" {
		t.Fatalf("first piece = %q", toks[0])
	}
	for _, tok := range toks[1:] {
		if !strings.HasPrefix(tok, "##") {
			t.Fatalf("continuation piece %q missing ## prefix", tok)
		}
	}
	// Reassembly must reproduce the word.
	var b strings.Builder
	for _, tok := range toks {
		b.WriteString(strings.TrimPrefix(tok, "##"))
	}
	if b.String() != "supercalifragilistic" {
		t.Fatalf("chunks do not reassemble: %v", toks)
	}
}

func TestCountMatchesTokens(t *testing.T) {
	tk := New()
	if err := quick.Check(func(s string) bool {
		if len(s) > 200 {
			s = s[:200]
		}
		return tk.Count(s) == len(tk.Tokens(s))
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountEmptyAndWhitespace(t *testing.T) {
	if Count("") != 0 {
		t.Error("empty string should have 0 tokens")
	}
	if Count("   \t\n ") != 0 {
		t.Error("whitespace should have 0 tokens")
	}
}

func TestTokenCountExpansion(t *testing.T) {
	// Entity-matching serialisations should tokenize to roughly 1-2 tokens
	// per word, matching BPE behaviour on noisy product text.
	text := "sony professional camcorder hdr-fx1000 black, home audio equipment, $3,199.99"
	words := len(strings.Fields(text))
	tokens := Count(text)
	if tokens < words || tokens > 4*words {
		t.Fatalf("token expansion out of plausible range: %d words -> %d tokens", words, tokens)
	}
}

func TestDefaultHelpersMatchInstance(t *testing.T) {
	text := "cross dataset entity matching"
	if Count(text) != Default.Count(text) {
		t.Error("package-level Count disagrees with Default")
	}
}
