package main

import (
	"testing"

	"repro/internal/record"
)

func TestReplicaNameStable(t *testing.T) {
	if got := replicaName(0); got != "r1" {
		t.Fatalf("replicaName(0) = %q", got)
	}
	if got := replicaName(2); got != "r3" {
		t.Fatalf("replicaName(2) = %q", got)
	}
}

func TestBatchWindows(t *testing.T) {
	pairs := make([]record.Pair, smokeBatch*2+5)
	total := 0
	for start := 0; start < len(pairs); start += smokeBatch {
		b := batch(pairs, start)
		if len(b) > smokeBatch {
			t.Fatalf("batch at %d has %d pairs", start, len(b))
		}
		total += len(b)
	}
	if total != len(pairs) {
		t.Fatalf("batches cover %d of %d pairs", total, len(pairs))
	}
}

func TestSamePreds(t *testing.T) {
	if err := samePreds([]bool{true, false}, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if err := samePreds([]bool{true}, []bool{false}); err == nil {
		t.Fatal("diverging predictions accepted")
	}
	if err := samePreds([]bool{true}, []bool{true, true}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestKeyHashesDeterministic(t *testing.T) {
	pairs := []record.Pair{
		{Left: record.Record{Values: []string{"a", "b"}}, Right: record.Record{Values: []string{"c"}}},
		{Left: record.Record{Values: []string{"d"}}, Right: record.Record{Values: []string{"e", "f"}}},
	}
	a, b := keyHashes(pairs), keyHashes(pairs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("key hash %d not deterministic", i)
		}
	}
	if a[0] == a[1] {
		t.Fatal("distinct pairs collided")
	}
}

func TestStringListFlag(t *testing.T) {
	cfg, err := parseFlags([]string{"-replica", "http://a", "-replica", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.replicaURLs; len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Fatalf("-replica -replica = %v", got)
	}
}
