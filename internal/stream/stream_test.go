package stream

import (
	"fmt"
	"testing"

	"repro/internal/blocking/lsh"
	"repro/internal/datasets"
	"repro/internal/record"
)

func TestIngestMergesDuplicates(t *testing.T) {
	g := NewIngestor(DefaultConfig())
	a := record.Record{ID: "a", Values: []string{"golden dragon palace restaurant", "main street"}}
	dup := record.Record{ID: "a2", Values: []string{"golden dragon palace restaurant", "main street"}}
	other := record.Record{ID: "b", Values: []string{"iron horse tavern", "oak avenue"}}

	first := g.Ingest(a)
	if first.MergedInto {
		t.Fatal("first record cannot merge")
	}
	second := g.Ingest(dup)
	if !second.MergedInto || second.EntityID != "a" || second.Score != 1 {
		t.Fatalf("duplicate did not merge: %+v", second)
	}
	third := g.Ingest(other)
	if third.MergedInto {
		t.Fatalf("distinct record merged: %+v", third)
	}

	st := g.Stats()
	if st.Records != 3 || st.Entities != 2 || st.Merged != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.IndexKeys != g.Index().Stats().Buckets || st.IndexKeys == 0 {
		t.Fatalf("IndexKeys %d, index reports %d buckets", st.IndexKeys, g.Index().Stats().Buckets)
	}
}

func TestIngestTransitiveGrowth(t *testing.T) {
	g := NewIngestor(DefaultConfig())
	for i := 0; i < 5; i++ {
		r := record.Record{ID: fmt.Sprintf("r%d", i), Values: []string{"stone creek brewery amber ale", "portland"}}
		g.Ingest(r)
	}
	ents := g.Entities()
	if len(ents) != 1 || len(ents[0].Records) != 5 {
		t.Fatalf("five identical records should form one entity: %d entities", len(ents))
	}
}

func TestIngestAssignsIDs(t *testing.T) {
	g := NewIngestor(DefaultConfig())
	arr := g.Ingest(record.Record{Values: []string{"nameless record"}})
	if arr.RecordID == "" || arr.EntityID == "" {
		t.Fatalf("missing ids: %+v", arr)
	}
}

// TestIngestProbesBeforeFiling: an arriving record is probed before it is
// filed, so it is never its own candidate; once filed, the same record
// probes back as a perfect candidate.
func TestIngestProbesBeforeFiling(t *testing.T) {
	g := NewIngestor(DefaultConfig())
	r := record.Record{ID: "x", Values: []string{"acme turbo widget tx-100"}}
	if arr := g.Ingest(r); arr.CandidatesScored != 0 || arr.MergedInto {
		t.Fatalf("first arrival saw candidates: %+v", arr)
	}
	got := g.Index().NewProber().ProbeHashes(lsh.RecordHashes(r, nil), nil)
	if len(got) != 1 || got[0].Index != 0 || got[0].Jaccard != 1 {
		t.Fatalf("after filing, probe returned %+v", got)
	}
}

func TestIngestBenchmarkFeed(t *testing.T) {
	// Feed a slice of a benchmark dataset's positive pairs: left then
	// right views. The right views should predominantly merge into their
	// left twins.
	d := datasets.MustGenerate("FOZA", 42)
	g := NewIngestor(Config{MatchThreshold: 0.35})
	var positives []record.LabeledPair
	for _, p := range d.Pairs {
		if p.Match {
			positives = append(positives, p)
		}
	}
	for _, p := range positives {
		g.Ingest(p.Left)
	}
	merged := 0
	for _, p := range positives {
		if arr := g.Ingest(p.Right); arr.MergedInto {
			merged++
		}
	}
	rate := float64(merged) / float64(len(positives))
	if rate < 0.6 {
		t.Fatalf("only %.0f%% of duplicate views merged", 100*rate)
	}
	st := g.Stats()
	if st.Records != 2*len(positives) {
		t.Fatalf("record count %d", st.Records)
	}
}

func TestEntitiesSortedBySize(t *testing.T) {
	g := NewIngestor(DefaultConfig())
	for i := 0; i < 3; i++ {
		g.Ingest(record.Record{ID: fmt.Sprintf("big%d", i), Values: []string{"twin pines brewing lager", "salem"}})
	}
	g.Ingest(record.Record{ID: "solo", Values: []string{"completely different thing", "elsewhere"}})
	ents := g.Entities()
	if len(ents) != 2 || len(ents[0].Records) < len(ents[1].Records) {
		t.Fatalf("entities not sorted by size: %v", ents)
	}
}
