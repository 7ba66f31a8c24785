package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/report"
)

// emtool trace validates a JSONL span trace written by emmatch, emstudy
// or emserve (-trace): it parses every line, checks the trace's
// structural invariants (unique span IDs, existing parents, exact
// [start, end) containment of children in parents), and prints a summary
// of spans by name, with -stages also the per-stage fold. Non-zero exit
// on any violation.
//
// With -flight the inputs are flight-recorder evidence dumps instead
// (emserve -flight-dump, see internal/flight): every line must parse as
// a flight record with a known outcome code and strictly increasing
// sequence numbers, and an empty dump is a failure — how make smoke
// checks breach evidence.
//
//	emtool trace [-stages] trace.jsonl [more.jsonl ...]
//	emtool trace -flight flight-000-breach.jsonl [more.jsonl ...]

type traceConfig struct {
	stages bool
	flight bool
	paths  []string
}

func parseTraceFlags(args []string) (traceConfig, error) {
	var cfg traceConfig
	fs := flag.NewFlagSet("emtool trace", flag.ContinueOnError)
	fs.BoolVar(&cfg.stages, "stages", false, "also print the per-stage run report folded from the trace")
	fs.BoolVar(&cfg.flight, "flight", false, "validate flight-recorder JSONL dumps instead of span traces")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.paths = fs.Args(); len(cfg.paths) == 0 {
		return cfg, fmt.Errorf("trace needs at least one file")
	}
	return cfg, nil
}

func traceMain(args []string) error {
	cfg, err := parseTraceFlags(args)
	if err != nil {
		return usageError{err}
	}
	if cfg.flight {
		return checkFlight(cfg.paths)
	}
	return checkTrace(cfg.paths, cfg.stages)
}

// checkFlight validates each dump's invariants via flight.Validate, then
// prints the outcome-code histogram so a breach dump's evidence mix
// (scored vs shed vs degraded) is visible at a glance.
func checkFlight(paths []string) error {
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n, err := flight.Validate(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		byCode := map[string]int{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var rec flight.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			byCode[rec.Code.String()]++
		}
		fmt.Printf("%s: %d flight records ok\n", path, n)
		printCounts(byCode)
	}
	return nil
}

func checkTrace(paths []string, stages bool) error {
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		recs, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(recs) == 0 {
			return fmt.Errorf("%s: empty trace", path)
		}
		if err := obs.CheckNesting(recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}

		roots := 0
		byName := map[string]int{}
		var totalNS int64
		for _, r := range recs {
			byName[r.Name]++
			if r.Parent == 0 {
				roots++
				totalNS += r.DurNS
			}
		}
		fmt.Printf("%s: %d spans ok (%d roots, depth %d, %.1fms root time)\n",
			path, len(recs), roots, obs.Depth(recs), float64(totalNS)/1e6)
		printCounts(byName)
		if stages {
			fmt.Println(report.FoldSpans(recs).Render())
		}
	}
	return nil
}

// printCounts prints one "name count" row per key, sorted by name.
func printCounts(counts map[string]int) {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-12s %d\n", n, counts[n])
	}
}
