package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/slo"
)

// defaults is what parseFlags(nil) must return: every flag's default, in
// both modes.
func defaults() config {
	return config{
		addr:  ":8080",
		ready: eval.ReadySpec{Matcher: "stringsim", Seed: 1},
		serve: serve.Config{
			MatcherName: "stringsim", MaxBatch: 64, QueueDepth: 1024,
			MaxPairsPerRequest: 256, CacheCapacity: 65536,
		},
		front: fleet.Config{
			MatcherName: "stringsim", MaxPairsPerRequest: 256, ProbeInterval: 500 * time.Millisecond,
		},
		routeConf: 0.5,
		load: serve.LoadGenConfig{
			Duration: 5 * time.Second, Concurrency: 8, PairsPerRequest: 64, Protocol: serve.ProtoJSON,
		},
		dataset: "ABT",
	}
}

func mustSpecs(t *testing.T, s string) []slo.Spec {
	t.Helper()
	specs, err := slo.ParseSpecs(s)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestParseFlags covers every emserve flag once. The fleet rows pin the
// bug this wiring fixes by construction: a replica is built from the same
// serve.Config as the single server, so it has the prediction cache and
// every tunable the operator set.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args string
		want func(*config)
	}{
		{"defaults", "", func(*config) {}},
		{"fleet defaults keep the cache", "-replicas 3", func(c *config) { c.replicas = 3 }},
		{"fleet replicas take the serve tunables", "-replicas 3 -cache 4096 -queue 64 -deadline 50ms", func(c *config) {
			c.replicas = 3
			c.serve.CacheCapacity, c.serve.QueueDepth, c.serve.DefaultDeadline = 4096, 64, 50*time.Millisecond
		}},
		{"start-up", "-addr :9000 -matcher ditto -seed 7 -parallel 2 -store /tmp/s", func(c *config) {
			c.addr = ":9000"
			c.ready = eval.ReadySpec{Matcher: "ditto", Seed: 7, Parallel: 2, Store: "/tmp/s"}
			c.serve.MatcherName, c.front.MatcherName = "ditto", "ditto"
		}},
		{"serve tunables", "-workers 3 -batch 16 -batch-wait 2ms -max-pairs 32 -cache 0", func(c *config) {
			c.serve.Workers, c.serve.MaxBatch, c.serve.BatchWait = 3, 16, 2*time.Millisecond
			c.serve.MaxPairsPerRequest, c.serve.CacheCapacity = 32, 0
			c.front.MaxPairsPerRequest = 32
		}},
		{"the fleet front takes -max-pairs", "-replicas 3 -max-pairs 512", func(c *config) {
			c.replicas = 3
			c.serve.MaxPairsPerRequest, c.front.MaxPairsPerRequest = 512, 512
		}},
		{"fleet front", "-replica http://a -replica http://b -hedge 5ms -no-hedge -probe-interval 1s", func(c *config) {
			c.replicaURLs = []string{"http://a", "http://b"}
			c.front.HedgeAfter, c.front.HedgeDisabled, c.front.ProbeInterval = 5*time.Millisecond, true, time.Second
		}},
		{"loadgen", "-loadgen -qps 200 -duration 2s -concurrency 4 -pairs-per-request 1 -dataset BEER -json -proto binary", func(c *config) {
			c.loadgen, c.dataset, c.jsonOut = true, "BEER", true
			c.load = serve.LoadGenConfig{QPS: 200, Duration: 2 * time.Second, Concurrency: 4, PairsPerRequest: 1, Protocol: serve.ProtoBinary}
		}},
		{"route", "-route stringsim,gpt-4 -route-confidence 1 -route-inject", func(c *config) {
			c.routeTiers, c.routeConf, c.routeInject = "stringsim,gpt-4", 1, true
		}},
		{"slo and flight", "-loadgen -slo p99<=5ms -slo-shed 500 -flight 4096 -flight-dump /tmp/f -slo-expect-breach", func(c *config) {
			c.loadgen, c.sloSpec, c.flightN, c.flightDir, c.sloExpect = true, "p99<=5ms", 4096, "/tmp/f", true
			c.serve.BreachShedPermille = 500
			c.serve.SLOSpecs = mustSpecs(t, "p99<=5ms")
			c.front.SLOSpecs = c.serve.SLOSpecs
		}},
		{"slo-assert", "-loadgen -slo shed<=20% -slo-assert", func(c *config) {
			c.loadgen, c.sloSpec, c.sloAssert = true, "shed<=20%", true
			c.serve.SLOSpecs = mustSpecs(t, "shed<=20%")
			c.front.SLOSpecs = c.serve.SLOSpecs
		}},
		{"modes", "-smoke -pprof -trace /tmp/t.jsonl", func(c *config) {
			c.smoke, c.pprof, c.tracePath = true, true, "/tmp/t.jsonl"
		}},
	}
	for _, tc := range cases {
		got, err := parseFlags(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := defaults()
		tc.want(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// TestParseFlagsRejects covers the documented mutual exclusions.
func TestParseFlagsRejects(t *testing.T) {
	cases := []struct{ args, wantErr string }{
		{"-slo p99<=5ms -slo-assert", "need -loadgen and -slo"},
		{"-loadgen -slo-assert", "need -loadgen and -slo"},
		{"-loadgen -slo-expect-breach", "need -loadgen and -slo"},
		{"-loadgen -slo p99<=5ms -slo-expect-breach", "needs -flight and -flight-dump"},
		{"-loadgen -slo p99<=5ms -flight 64 -slo-expect-breach", "needs -flight and -flight-dump"},
		{"-flight-dump /tmp/f", "-flight-dump needs -flight"},
		{"-replicas -1", "invalid value"},
		{"-replicas 3 -loadgen", "drop -replicas/-replica"},
		{"-replica http://a -route stringsim,gpt-4", "drop -replicas/-replica"},
		{"-slo p99<=oops", "p99"},
		{"-no-such-flag", "not defined"},
	}
	for _, tc := range cases {
		_, err := parseFlags(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q: err = %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestServeConfigPerServer pins what serveConfig adds to the flags'
// serve.Config for one server: that server's start-up facts and its own
// flight ring, never one shared between replicas.
func TestServeConfigPerServer(t *testing.T) {
	cfg, err := parseFlags(strings.Fields("-replicas 2 -cache 4096 -flight 64 -flight-dump /tmp/f"))
	if err != nil {
		t.Fatal(err)
	}
	warm := &eval.Ready{Warm: true, Seconds: 0.5, Hash: "abc"}
	a, b := cfg.serveConfig(warm, "r1"), cfg.serveConfig(&eval.Ready{Seconds: 2}, "r2")
	if a.CacheCapacity != 4096 || b.CacheCapacity != 4096 {
		t.Fatalf("cache capacity %d/%d, want 4096 on both", a.CacheCapacity, b.CacheCapacity)
	}
	if a.Flight == nil || a.Flight == b.Flight {
		t.Fatal("replicas must each get their own flight ring")
	}
	if a.FlightDump.Dir() != "/tmp/f/r1" || b.FlightDump.Dir() != "/tmp/f/r2" {
		t.Fatalf("flight dump directories %s / %s, want one per replica", a.FlightDump.Dir(), b.FlightDump.Dir())
	}
	if want := (serve.StartupInfo{Warm: true, RestoreSeconds: 0.5, SnapshotHash: "abc"}); *a.Startup != want {
		t.Fatalf("warm start-up info %+v, want %+v", *a.Startup, want)
	}
	if want := (serve.StartupInfo{TrainSeconds: 2}); *b.Startup != want {
		t.Fatalf("cold start-up info %+v, want %+v", *b.Startup, want)
	}
}
