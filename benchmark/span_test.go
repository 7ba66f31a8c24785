package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "handler", Start: 0, End: 100},
		// Two overlapping children cover [10,60); a third sticks out
		// of the parent and covers [90,100) of it.
		{ID: 2, Parent: 1, Name: "match", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "match", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "match", Start: 90, End: 130},
		// A grandchild takes nothing from the root, 15 from its parent.
		{ID: 5, Parent: 2, Name: "probe", Start: 20, End: 35},
		// A child contained in another changes nothing.
		{ID: 6, Parent: 1, Name: "match", Start: 35, End: 40},
		// A root with no children keeps its whole duration.
		{ID: 7, Name: "handler", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 40, 2: 25, 3: 30, 4: 40, 5: 15, 6: 5, 7: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var off *tracer
	if id := off.start("x", 0, 0); id != 0 || off.end(id) != 0 || off.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
	tr := newTracer()
	root := tr.start("handler", 0, 7)
	child := tr.start("transport.match", root, 7)
	open := tr.start("never-ended", root, 7)
	if tr.end(child) < 0 || tr.end(root) < 0 {
		t.Error("negative duration")
	}
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "handler" || got[1].Parent != root || got[1].Request != 7 {
		t.Errorf("snapshot = %+v (span %d was never ended and must be left out)", got, open)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := writeSpans(path, got); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"name":"transport.match"`) || !strings.Contains(lines[1], `"start_ns"`) {
		t.Errorf("span file:\n%s", raw)
	}
}
