package cluster

import (
	"testing"

	"repro/internal/record"
)

func TestResolveTransitiveClosure(t *testing.T) {
	edges := []Edge{
		{A: "a", B: "b", Score: 0.9},
		{A: "b", B: "c", Score: 0.8},
		{A: "x", B: "y", Score: 0.7},
	}
	clusters := Resolve(edges, nil, Config{})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	if clusters[0].Size() != 3 || clusters[0].Members[0] != "a" {
		t.Fatalf("closure cluster wrong: %+v", clusters[0])
	}
}

func TestResolveSingletons(t *testing.T) {
	edges := []Edge{{A: "a", B: "b", Score: 1}}
	clusters := Resolve(edges, []string{"a", "b", "lonely"}, Config{})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 (pair + singleton)", len(clusters))
	}
	found := false
	for _, c := range clusters {
		if c.Size() == 1 && c.Members[0] == "lonely" {
			found = true
		}
	}
	if !found {
		t.Fatal("singleton lost")
	}
}

func TestResolveMinScore(t *testing.T) {
	edges := []Edge{
		{A: "a", B: "b", Score: 0.9},
		{A: "b", B: "c", Score: 0.2}, // below threshold
	}
	clusters := Resolve(edges, nil, Config{MinScore: 0.5})
	for _, c := range clusters {
		for _, m := range c.Members {
			if m == "c" && c.Size() > 1 {
				t.Fatal("low-confidence edge was used")
			}
		}
	}
}

func TestResolveMaxClusterSize(t *testing.T) {
	// A chain of strong edges with one weak glue edge: the cap must cut
	// through the weak link.
	edges := []Edge{
		{A: "a", B: "b", Score: 0.95},
		{A: "b", B: "c", Score: 0.94},
		{A: "c", B: "d", Score: 0.15}, // the false-positive glue
		{A: "d", B: "e", Score: 0.93},
		{A: "e", B: "f", Score: 0.92},
	}
	clusters := Resolve(edges, nil, Config{MaxClusterSize: 3})
	for _, c := range clusters {
		if c.Size() > 3 {
			t.Fatalf("cluster exceeds cap: %+v", c)
		}
	}
	// The strong sub-chains must survive intact.
	sizes := map[int]int{}
	for _, c := range clusters {
		sizes[c.Size()]++
	}
	if sizes[3] != 2 {
		t.Fatalf("expected two 3-clusters, got %v", sizes)
	}
}

func TestFromPredictions(t *testing.T) {
	pairs := []record.Pair{
		{Left: record.Record{ID: "a"}, Right: record.Record{ID: "b"}},
		{Left: record.Record{ID: "c"}, Right: record.Record{ID: "d"}},
	}
	edges := FromPredictions(pairs, []bool{true, false}, []float64{0.8, 0.9})
	if len(edges) != 1 || edges[0].A != "a" || edges[0].Score != 0.8 {
		t.Fatalf("edges = %+v", edges)
	}
	// Without scores, default confidence 1.
	edges = FromPredictions(pairs, []bool{true, true}, nil)
	if len(edges) != 2 || edges[0].Score != 1 {
		t.Fatalf("default-score edges = %+v", edges)
	}
}

func TestUnionFindPathCompression(t *testing.T) {
	u := newUnionFind()
	ids := []string{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		u.add(id)
	}
	u.union("a", "b")
	u.union("b", "c")
	u.union("c", "d")
	root := u.find("d")
	for _, id := range []string{"a", "b", "c", "d"} {
		if u.find(id) != root {
			t.Fatalf("%s not in the merged component", id)
		}
	}
	if u.find("e") == root {
		t.Fatal("e wrongly merged")
	}
}
