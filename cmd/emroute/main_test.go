package main

import (
	"bytes"
	"strings"
	"testing"
)

// The sweep's output must be byte-identical at any -parallel level: arms
// are independent routers on independent virtual clocks, and every
// injected outcome is a pure function of (seed, backend, pair, attempt).
func TestSweepParallelByteIdentity(t *testing.T) {
	base := sweepConfig{
		Targets:    "ABT",
		Tiers:      "stringsim,gpt-4",
		Thresholds: "0,0.3,0.5,0.7",
		Inject:     "both",
		Seed:       3,
		MaxPairs:   120,
		Smoke:      true,
	}
	var seq, par bytes.Buffer
	cfgSeq := base
	cfgSeq.Parallel = 1
	if err := run(cfgSeq, &seq); err != nil {
		t.Fatal(err)
	}
	cfgPar := base
	cfgPar.Parallel = 2
	if err := run(cfgPar, &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("sweep output differs across -parallel levels:\n--- parallel=1 ---\n%s\n--- parallel=2 ---\n%s",
			seq.String(), par.String())
	}
	if !bytes.Contains(seq.Bytes(), []byte("SMOKE OK")) {
		t.Fatalf("smoke checks did not pass:\n%s", seq.String())
	}
}

// -slo-assert judges clean arms against the declared objectives: a
// satisfiable set passes, an impossible F1 floor fails with the
// violation named.
func TestSweepSLOAssert(t *testing.T) {
	base := sweepConfig{
		Targets:    "ABT",
		Tiers:      "stringsim,gpt-4",
		Thresholds: "0,0.5",
		Inject:     "clean",
		Seed:       3,
		MaxPairs:   80,
		SLOAssert:  "f1>=0.05,cost<=$1000,p99<=10s,shed<=50%",
	}
	var out bytes.Buffer
	if err := run(base, &out); err != nil {
		t.Fatalf("satisfiable slo-assert failed: %v", err)
	}
	if !bytes.Contains(out.Bytes(), []byte("SLO ASSERT OK: 2 clean arms")) {
		t.Fatalf("missing assert verdict:\n%s", out.String())
	}

	bad := base
	bad.SLOAssert = "f1>=0.9999"
	err := run(bad, &out)
	if err == nil {
		t.Fatal("impossible f1 floor passed")
	}
	if !strings.Contains(err.Error(), "below floor") {
		t.Fatalf("violation not named: %v", err)
	}

	// Injected-only sweeps have nothing deterministic to judge.
	noClean := base
	noClean.Inject = "injected"
	if err := run(noClean, &out); err == nil || !strings.Contains(err.Error(), "no clean arms") {
		t.Fatalf("injected-only assert err = %v", err)
	}
}

// Threshold parsing rejects malformed and non-ascending lists.
func TestParseThresholds(t *testing.T) {
	if got, err := parseThresholds("0, 0.5 ,1"); err != nil || len(got) != 3 {
		t.Fatalf("parseThresholds = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0.5,0.3", "0,,"} {
		if _, err := parseThresholds(bad); err == nil && bad != "0,," {
			t.Errorf("parseThresholds(%q) accepted", bad)
		}
	}
}

// TestParseFlags covers every emroute flag once, and the defaults.
func TestParseFlags(t *testing.T) {
	got, err := parseFlags([]string{
		"-targets", "ABT,BEER", "-tiers", "stringsim,gpt-4", "-thresholds", "0,1",
		"-inject", "clean", "-seed", "5", "-max-pairs", "40", "-parallel", "2",
		"-out", "f.csv", "-smoke", "-slo-assert", "f1>=0.3",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sweepConfig{
		Targets: "ABT,BEER", Tiers: "stringsim,gpt-4", Thresholds: "0,1",
		Inject: "clean", Seed: 5, MaxPairs: 40, Parallel: 2,
		Out: "f.csv", Smoke: true, SLOAssert: "f1>=0.3",
	}
	if got != want {
		t.Fatalf("parseFlags = %+v, want %+v", got, want)
	}
	def, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDef := sweepConfig{
		Targets: "ABT", Tiers: "stringsim,anymatch-gpt2,gpt-4",
		Thresholds: "0,0.3,0.5,0.7,0.9,1", Inject: "both", Seed: 1,
	}
	if def != wantDef {
		t.Fatalf("defaults = %+v, want %+v", def, wantDef)
	}
}
