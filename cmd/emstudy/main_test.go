package main

import (
	"reflect"
	"testing"

	"repro/internal/eval"
)

// TestParseFlags covers the subcommand, its positional argument, every
// shared flag once, and the defaults that depend on the subcommand.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want config
	}{
		{"defaults", []string{"table3"}, config{
			cmd: "table3", seeds: eval.DefaultSeeds, journalPath: "emstudy-table3.journal",
		}},
		{"every flag", []string{
			"table4", "-seeds", "2", "-parallel", "3", "-trace", "t.jsonl",
			"-metrics-dump", "-journal", "run.journal", "-resume",
		}, config{
			cmd: "table4", seeds: eval.DefaultSeeds[:2], parallel: 3, tracePath: "t.jsonl",
			metricsDump: true, journalPath: "run.journal", journalOn: true, resume: true,
		}},
		{"positional after flags", []string{"export", "-parallel", "1", "outdir"}, config{
			cmd: "export", arg: "outdir", seeds: eval.DefaultSeeds, parallel: 1,
			journalPath: "emstudy-export.journal",
		}},
		{"resume alone journals to the default path", []string{"table3", "-resume"}, config{
			cmd: "table3", seeds: eval.DefaultSeeds, journalPath: "emstudy-table3.journal",
			journalOn: true, resume: true,
		}},
		{"out-of-range seed counts keep the paper's five", []string{"table3", "-seeds", "9"}, config{
			cmd: "table3", seeds: eval.DefaultSeeds, journalPath: "emstudy-table3.journal",
		}},
	}
	for _, tc := range cases {
		got, err := parseFlags(tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parseFlags = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if _, err := parseFlags(nil); err == nil {
		t.Error("no command accepted")
	}
	if err := run("no-such-table", eval.DefaultSeeds[:1], 1, ""); err == nil {
		t.Error("unknown command accepted")
	}
}
