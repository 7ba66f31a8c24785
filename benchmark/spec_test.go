package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// The file the driver reads and the tables the program prints from must
// say the same thing, name for name.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %v\n code %v", doc.Workloads, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code says %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
}

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
}

// Every workload BENCHMARK.json names must be one the program can run.
func TestEveryWorkloadHasARunner(t *testing.T) {
	runnable := map[string]bool{"lodo-offline": true}
	for _, sp := range servingSpecs {
		runnable[sp.name] = true
		if sp.passes < 15 || sp.cyclesPerPass < 1 {
			t.Errorf("%s: %d passes of %d cycles", sp.name, sp.passes, sp.cyclesPerPass)
		}
		if sp.hitRatio == 0 && sp.cacheCapacity >= sp.requests*pairsPerRequest {
			t.Errorf("%s: a cache of %d holds the cycle of %d pairs, so it would hit", sp.name, sp.cacheCapacity, sp.requests*pairsPerRequest)
		}
		if sp.requests%2 != 0 {
			t.Errorf("%s: an odd cycle would give a request both protocols in turn", sp.name)
		}
	}
	for _, w := range workloads {
		if !runnable[w.Name] {
			t.Errorf("workload %q has no runner", w.Name)
		}
		delete(runnable, w.Name)
	}
	for name := range runnable {
		t.Errorf("runner %q is not listed in workloads", name)
	}
}

func TestGoldenNamesKnownMetrics(t *testing.T) {
	var golden map[string]map[string]float64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		known[m.Name] = true
	}
	for _, w := range workloads {
		if _, ok := golden[w.Name]["macro_f1"]; !ok {
			t.Errorf("golden.json has no macro_f1 for %s", w.Name)
		}
		for name := range golden[w.Name] {
			if !known[name] {
				t.Errorf("golden.json: %s names unknown metric %q", w.Name, name)
			}
		}
	}
}
