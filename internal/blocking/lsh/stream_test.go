package lsh_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/stream"
)

// TestStreamSourcePlugsIntoIngestor checks the index as the stream
// ingestor's candidate source end to end: an ingestor running on it must
// merge duplicate views of the same entity and expose the index's bucket
// count through Stats.
func TestStreamSourcePlugsIntoIngestor(t *testing.T) {
	corpus := datasets.GenerateDedupCorpus(1500, 13, 0)
	ing := stream.NewIngestor(stream.Config{MatchThreshold: 0.5})
	for _, r := range corpus.Records {
		ing.Ingest(r)
	}
	st := ing.Stats()
	if st.Records != 1500 {
		t.Fatalf("ingested %d records", st.Records)
	}
	if st.IndexKeys == 0 {
		t.Fatal("LSH source reported zero bucket keys through Stats")
	}
	dupRecords := 1500 - corpus.Entities
	if st.Merged < dupRecords/2 {
		t.Fatalf("only %d merges for %d duplicate records", st.Merged, dupRecords)
	}
	if ix := ing.Index(); ix.Len() != 1500 {
		t.Fatalf("index holds %d records", ix.Len())
	}
}
