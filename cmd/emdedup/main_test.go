package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blocking/lsh"
	"repro/internal/dedup"
)

// TestOutputByteIdenticalAcrossParallelism pins the acceptance criterion:
// for a fixed seed, both the report and the cluster partition file are
// byte-identical whether the run used one worker or eight.
func TestOutputByteIdenticalAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	runAt := func(parallel int) (report, clusters []byte) {
		cfg := config{Config: dedup.DefaultConfig()}
		cfg.N = 3000
		cfg.Seed = 17
		cfg.Parallel = parallel
		cfg.outPath = filepath.Join(dir, "clusters.txt")
		out := cfg.outPath
		var buf bytes.Buffer
		if err := run(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), data
	}
	rep1, clu1 := runAt(1)
	rep8, clu8 := runAt(8)
	if !bytes.Equal(clu1, clu8) {
		t.Fatal("cluster partition differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(rep1, rep8) {
		t.Fatalf("report differs between -parallel 1 and -parallel 8:\n--- parallel 1:\n%s--- parallel 8:\n%s", rep1, rep8)
	}
	if len(clu1) == 0 {
		t.Fatal("empty cluster output")
	}
}

// TestRunModes exercises the trace, metrics, stream and smoke paths end to
// end on a small corpus.
func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	cfg := config{Config: dedup.DefaultConfig()}
	cfg.N = 1200
	cfg.Seed = 3

	var buf bytes.Buffer
	trace := filepath.Join(dir, "trace.jsonl")
	bulk := cfg
	bulk.compare, bulk.tracePath, bulk.smoke = true, trace, true
	if err := run(bulk, &buf); err != nil {
		t.Fatalf("bulk+compare+smoke run failed: %v\n%s", err, buf.String())
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}

	buf.Reset()
	cfg.Stream = true
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("stream run failed: %v", err)
	}

	// -compare under -stream is a usage error.
	cfg.compare = true
	if err := run(cfg, &buf); err == nil {
		t.Fatal("stream+compare should fail")
	}
}

// TestParseFlags covers every emdedup flag once, and the defaults.
func TestParseFlags(t *testing.T) {
	got, err := parseFlags([]string{
		"-n", "500", "-seed", "7", "-parallel", "2", "-bands", "16", "-rows", "4",
		"-topk", "9", "-minjaccard", "0.4", "-matcher", "stringsim", "-threshold", "0.6",
		"-maxcluster", "8", "-stream", "-compare", "-compare-exact", "123",
		"-out", "c.txt", "-trace", "t.jsonl", "-metrics-dump", "-smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		Config: dedup.Config{
			N: 500, Seed: 7, Parallel: 2,
			LSH:     lsh.Config{Bands: 16, Rows: 4, Seed: 7, TopK: 9, MinJaccard: 0.4},
			Matcher: "stringsim", Threshold: 0.6, MaxClusterSize: 8, Stream: true,
		},
		compare: true, cmpExact: 123, outPath: "c.txt", tracePath: "t.jsonl", dumpMx: true, smoke: true,
	}
	if got != want {
		t.Fatalf("parseFlags = %+v, want %+v", got, want)
	}
	def, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDef := config{Config: dedup.DefaultConfig(), cmpExact: dedup.CompareExactDefault}
	wantDef.LSH.Seed = wantDef.Seed
	if def != wantDef {
		t.Fatalf("defaults = %+v, want %+v", def, wantDef)
	}
}
