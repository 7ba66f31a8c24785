// Command benchmark is the repository's one benchmark suite: four
// fixed-work workloads driven in process — no socket is opened and no
// replica is spawned — through the public functions of serve, fleet,
// wire, route, matchers, eval and cost. See README.md in this directory.
//
//	go run ./benchmark -workload replica-hit -seed 1
//	go run ./benchmark -workload fleet-hit -seed 1 -trace 1
//	go run ./benchmark -aa 5
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// processStart is where setup_s starts counting: package initialisation,
// a few hundred microseconds after the kernel started the process.
var processStart = time.Now()

type options struct {
	workload string
	seed     uint64
	trace    bool
	quick    bool
}

// result is what one run of one workload produced.
type result struct {
	attempted, failed int
	problems          []string // every reason the run is not correct
	values            map[string]float64
	report            []string // extra human-readable lines of a traced run
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares the run's deterministic paper-facing numbers
// with the stored ones: a change in them is a change in what the
// program computes, never noise.
func checkGolden(workload string, res *result) {
	var golden map[string]map[string]float64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		res.problem("golden.json: %v", err)
		return
	}
	for name, want := range golden[workload] {
		got, ok := res.values[name]
		if !ok {
			res.problem("golden %s: metric not produced", name)
		} else if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			res.problem("golden %s: got %.12g, want %.12g", name, got, want)
		}
	}
}

func runWorkload(opt options) (*result, error) {
	for i := range servingSpecs {
		if servingSpecs[i].name == opt.workload {
			return runServing(&servingSpecs[i], opt)
		}
	}
	if opt.workload == "lodo-offline" {
		return runLODO(opt)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", opt.workload, strings.Join(names, ", "))
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// emit prints every metric of the run's mode by name with its unit, the
// stamp, and as the last line the machine-readable result.
func emit(opt options, res *result) error {
	specs := endToEnd
	if opt.trace {
		specs = perLayer
	}
	out := output{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]outMetric{}}
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, s := range specs {
		v := res.values[s.Name] // a layer off this workload's path reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("%s is not a finite number", s.Name)
			out.Correct, v = false, 0
		}
		out.Metrics[s.Name] = outMetric{v, s.Unit}
		fmt.Printf("%-36s %16.6f %s\n", s.Name, v, s.Unit)
	}
	for _, p := range res.problems {
		fmt.Println("INCORRECT:", p)
	}
	st, err := json.Marshal(newStamp(opt))
	if err != nil {
		return err
	}
	fmt.Println(string(st))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run() int {
	var opt options
	var trace, aa, seconds int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: replica-hit, replica-miss, fleet-hit or lodo-offline")
	flag.Uint64Var(&opt.seed, "seed", 1, "decides the order in which requests are sent; nothing else")
	flag.IntVar(&seconds, "seconds", runSeconds, "accepted for the driver and ignored: the work of a run is fixed, sized to measure about this long")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&opt.quick, "quick", false, "smoke mode: 2 passes, one LODO seed, no gating; never comparable with a full run")
	flag.IntVar(&aa, "aa", 0, "run every workload N times twice over and compare the two sets against the bounds")
	flag.Parse()
	opt.trace = trace != 0
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if aa > 0 {
		return runAA(aa, opt)
	}
	res, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if !opt.quick {
		checkGolden(opt.workload, res)
	}
	if err := emit(opt, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
