package crossem

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestBinaryListsMatchCmd holds the two places that enumerate the
// binaries to the directories under cmd/: the cmd/<name> rows of the
// README's architecture block and the build loop of the verify recipe.
// A binary added or deleted without updating either fails here.
func TestBinaryListsMatchCmd(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() {
			want = append(want, e.Name())
		}
	}

	readme := readDoc(t, "README.md")
	_, block, ok := strings.Cut(readme, "## Architecture\n\n```\n")
	if !ok {
		t.Fatal("README.md: no fenced block under ## Architecture")
	}
	block, _, _ = strings.Cut(block, "```")
	var rows []string
	for _, m := range regexp.MustCompile(`(?m)^cmd/(\S+)`).FindAllStringSubmatch(block, -1) {
		rows = append(rows, m[1])
	}
	checkBinaries(t, "README.md architecture rows", rows, want)

	skill := readDoc(t, ".claude/skills/verify/SKILL.md")
	m := regexp.MustCompile(`(?m)^for b in ([^;]+); do`).FindStringSubmatch(skill)
	if m == nil {
		t.Fatal("verify SKILL.md: no `for b in ...; do` build loop")
	}
	checkBinaries(t, "verify SKILL.md build loop", strings.Fields(m[1]), want)
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkBinaries(t *testing.T, where string, got, want []string) {
	t.Helper()
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s list %v; cmd/ holds %v", where, got, want)
	}
}
