package csvio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/record"
)

func TestRelationRoundTrip(t *testing.T) {
	records := []record.Record{
		{ID: "a1", Values: []string{"golden dragon", "main street", "$12"}},
		{ID: "a2", Values: []string{"blue, bistro", "oak \"quote\" ave", ""}},
	}
	// The relation as encoding/csv writes it, with an id column.
	in := "id,name,addr,price\n" +
		"a1,golden dragon,main street,$12\n" +
		"a2,\"blue, bistro\",\"oak \"\"quote\"\" ave\",\n"
	got, gotSchema, err := ReadRelation(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost records: %d", len(got))
	}
	for i := range records {
		if got[i].ID != records[i].ID {
			t.Errorf("record %d id %q, want %q", i, got[i].ID, records[i].ID)
		}
		for j := range records[i].Values {
			if got[i].Values[j] != records[i].Values[j] {
				t.Errorf("record %d value %d %q, want %q", i, j, got[i].Values[j], records[i].Values[j])
			}
		}
	}
	if strings.Join(gotSchema.Names, ",") != "name,addr,price" {
		t.Errorf("schema %v", gotSchema.Names)
	}
}

func TestReadRelationWithoutID(t *testing.T) {
	in := "name,city\nalpha,berlin\nbeta,paris\n"
	records, schema, err := ReadRelation(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].ID != "r1" || records[1].ID != "r2" {
		t.Fatalf("auto ids wrong: %+v", records)
	}
	if len(schema.Names) != 2 {
		t.Fatalf("schema %v", schema.Names)
	}
}

func TestReadRelationEmpty(t *testing.T) {
	if _, _, err := ReadRelation(strings.NewReader("")); err == nil {
		t.Fatal("empty file should error")
	}
}

func TestPairsRoundTrip(t *testing.T) {
	pairs := []record.LabeledPair{
		{Pair: record.Pair{
			Left:  record.Record{Values: []string{"a", "1"}},
			Right: record.Record{Values: []string{"a", "1"}},
		}, Match: true},
		{Pair: record.Pair{
			Left:  record.Record{Values: []string{"b", "2"}},
			Right: record.Record{Values: []string{"c", ""}},
		}, Match: false},
	}
	schema := record.Schema{Names: []string{"name", "price"}}

	var buf bytes.Buffer
	if err := WritePairs(&buf, pairs, schema); err != nil {
		t.Fatal(err)
	}
	got, gotSchema, hasLabels, err := ReadPairs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !hasLabels {
		t.Fatal("labels lost in round trip")
	}
	if len(got) != 2 || !got[0].Match || got[1].Match {
		t.Fatalf("labels wrong: %+v", got)
	}
	if got[1].Right.Values[0] != "c" || got[1].Right.Values[1] != "" {
		t.Fatalf("values wrong: %+v", got[1].Right)
	}
	if strings.Join(gotSchema.Names, ",") != "name,price" {
		t.Errorf("schema %v", gotSchema.Names)
	}
}

func TestReadPairsWithoutLabels(t *testing.T) {
	in := "left_name,right_name\nx,y\n"
	pairs, _, hasLabels, err := ReadPairs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if hasLabels {
		t.Fatal("no label column but hasLabels true")
	}
	if len(pairs) != 1 || pairs[0].Match {
		t.Fatalf("pairs: %+v", pairs)
	}
}

func TestReadPairsMismatchedColumns(t *testing.T) {
	in := "left_name,right_name,right_extra\nx,y,z\n"
	if _, _, _, err := ReadPairs(strings.NewReader(in)); err == nil {
		t.Fatal("mismatched left/right columns should error")
	}
}

func TestBenchmarkDatasetExportImport(t *testing.T) {
	d := datasets.MustGenerate("ZOYE", 42)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	pairs, schema, hasLabels, err := ReadPairs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !hasLabels || len(pairs) != len(d.Pairs) {
		t.Fatalf("export/import lost pairs: %d vs %d", len(pairs), len(d.Pairs))
	}
	if schema.NumAttrs() != d.Schema.NumAttrs() {
		t.Fatalf("schema arity: %d vs %d", schema.NumAttrs(), d.Schema.NumAttrs())
	}
	pos := 0
	for _, p := range pairs {
		if p.Match {
			pos++
		}
	}
	if pos != d.Positives() {
		t.Fatalf("positives: %d vs %d", pos, d.Positives())
	}
}
