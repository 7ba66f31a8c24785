package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
)

func TestDispatchUsage(t *testing.T) {
	cases := []struct {
		args    string
		code    int
		wantErr string
	}{
		{"", 2, "usage: emtool snap"},
		{"frobnicate", 2, `unknown subcommand "frobnicate"`},
		{"snap", 2, "snap needs a command"},
		{"snap ls", 2, "-store is required"},
		{"snap prune -store /tmp/s", 2, `unknown snap command "prune"`},
		{"snap info -store /tmp/s", 2, "info needs a hash or ref name"},
		{"trace", 2, "trace needs at least one file"},
		{"trace /no/such/trace.jsonl", 1, "emtool trace:"},
		{"watch -fleet http://f -addr http://a", 2, "mutually exclusive"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := dispatch(strings.Fields(tc.args), &stdout, &stderr); code != tc.code {
			t.Errorf("emtool %s: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("emtool %s: stderr %q lacks %q", tc.args, stderr.String(), tc.wantErr)
		}
		if tc.code == 2 && !strings.Contains(stderr.String(), "usage: emtool snap") {
			t.Errorf("emtool %s: usage error without the usage text: %q", tc.args, stderr.String())
		}
	}
}

func TestParseSnapFlags(t *testing.T) {
	got, err := parseSnapFlags(strings.Fields("train -store /tmp/s -matcher ditto -seed 3 -parallel 2 -ref prod -dry-run"))
	if err != nil {
		t.Fatal(err)
	}
	want := snapConfig{
		cmd: "train", dryRun: true,
		spec: eval.ReadySpec{Matcher: "ditto", Seed: 3, Parallel: 2, Store: "/tmp/s", Ref: "prod"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseSnapFlags = %+v, want %+v", got, want)
	}
	got, err = parseSnapFlags(strings.Fields("info -store /tmp/s abc123"))
	if err != nil {
		t.Fatal(err)
	}
	want = snapConfig{
		cmd: "info", arg: "abc123",
		spec: eval.ReadySpec{Matcher: "stringsim", Seed: 1, Store: "/tmp/s", Ref: "emsnap-stringsim"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
}

func TestParseTraceFlags(t *testing.T) {
	got, err := parseTraceFlags(strings.Fields("-stages -flight a.jsonl b.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := traceConfig{stages: true, flight: true, paths: []string{"a.jsonl", "b.jsonl"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTraceFlags = %+v, want %+v", got, want)
	}
}

func TestParseWatchFlags(t *testing.T) {
	cases := []struct {
		args string
		want watchConfig
	}{
		{"", watchConfig{URL: "http://localhost:8080", Interval: time.Second, ExitOnBreach: true}},
		{"-url http://s -interval 2s -n 5 -plain -exit-on-breach=false",
			watchConfig{URL: "http://s", Interval: 2 * time.Second, Count: 5, Plain: true}},
		{"-once", watchConfig{URL: "http://localhost:8080", Interval: time.Second, Count: 1, Plain: true, ExitOnBreach: true}},
		{"-addr http://a -addr http://b",
			watchConfig{URL: "http://localhost:8080", Addrs: []string{"http://a", "http://b"}, Interval: time.Second, ExitOnBreach: true}},
		{"-fleet http://f",
			watchConfig{URL: "http://localhost:8080", FleetURL: "http://f", Interval: time.Second, ExitOnBreach: true}},
	}
	for _, tc := range cases {
		got, err := parseWatchFlags(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: parseWatchFlags = %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

// TestWatchExitsThreeOnBreach pins the exit code scripts rely on.
func TestWatchExitsThreeOnBreach(t *testing.T) {
	st := okStats()
	st.SLOState = "breach"
	ts := fixture(t, st, nil)
	var stdout, stderr bytes.Buffer
	if code := dispatch([]string{"watch", "-addr", ts.URL, "-once"}, &stdout, &stderr); code != 3 {
		t.Fatalf("exit %d, want 3; stderr %q", code, stderr.String())
	}
	if code := dispatch([]string{"watch", "-addr", ts.URL, "-once", "-exit-on-breach=false"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d with -exit-on-breach=false, want 0", code)
	}
}

// TestSnapTrainWarmStartsEmserve pins the promise snap train makes: a
// store it primed warm-starts the start-up path emserve runs, and snap
// verify finds the artifact sound.
func TestSnapTrainWarmStartsEmserve(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"snap", "train", "-store", dir, "-matcher", "gpt-4"},
		{"snap", "verify", "-store", dir},
	} {
		if code := dispatch(args, &stdout, &stderr); code != 0 {
			t.Fatalf("emtool %v: exit %d: %s", args, code, stderr.String())
		}
	}
	r, err := eval.ReadyMatcher(eval.ReadySpec{Matcher: "gpt-4", Seed: 1, Store: dir, Ref: "emserve-gpt-4"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Warm {
		t.Fatal("emserve's start-up path trained from scratch on a store emtool snap train primed")
	}
}
