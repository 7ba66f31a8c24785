package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"

	"repro/internal/stats"
)

// runAA is the tool behind the benchmark's own acceptance check: it
// runs every workload (or the one named by -workload) n times twice
// over as child processes, alternating the two sets and giving every
// run its own seed, and compares the sets' medians against each
// metric's bound. It also prints the quartile spread of each set and
// of all runs together, the number a later comparison between two
// commits has to beat. Exit status 1 means two sets of runs of the
// same code disagreed, or a spread (setup_s excepted) exceeded its bound.
func runAA(n int, opt options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := false
	for _, w := range workloads {
		if opt.workload != "" && opt.workload != w.Name {
			continue
		}
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // alternate which set goes first
				seed := 1 + i + side*n
				out, err := runChild(exe, w.Name, seed, opt)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, seed, err)
					return 2
				}
				if !out.Correct {
					fmt.Printf("%s seed %d: run reported incorrect\n", w.Name, seed)
					bad = true
				}
				for name, m := range out.Metrics {
					sets[side][name] = append(sets[side][name], m.Value)
				}
			}
		}
		fmt.Printf("%s: %d runs per set\n", w.Name, n)
		fmt.Printf("  %-22s %14s %14s %9s %9s %9s %9s %7s\n", "metric", "median A", "median B", "diff", "spread A", "spread B", "spread AB", "bound")
		for _, s := range endToEnd {
			a, b := sets[0][s.Name], sets[1][s.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("  %-22s missing from the runs' output\n", s.Name)
				bad = true
				continue
			}
			ma, mb := stats.Median(a), stats.Median(b)
			diff := math.Abs(mb-ma) / math.Abs(ma)
			sa, sb, sab := quartileSpread(a), quartileSpread(b), quartileSpread(append(append([]float64(nil), a...), b...))
			verdict := ""
			if diff > s.Bound {
				verdict, bad = "  MEDIANS DIFFER", true
			}
			if s.Name != "setup_s" && max(sa, sb, sab) > s.Bound {
				verdict, bad = verdict+"  SPREAD OVER BOUND", true
			}
			fmt.Printf("  %-22s %14.4f %14.4f %8.2f%% %8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				s.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*sab, 100*s.Bound, verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// runChild runs one workload once in a fresh process, so that peak RSS
// and cold caches mean what they mean in a normal run, and parses the
// result line.
func runChild(exe, workload string, seed int, opt options) (*output, error) {
	args := []string{"-workload", workload, "-seed", strconv.Itoa(seed)}
	if opt.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil && len(stdout) == 0 {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out output
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &out, nil
}
