// Command emserve runs the online entity-matching service: it loads any
// matcher from the study (fine-tuned matchers train once at startup on the
// built-in transfer library, exactly like emmatch) and answers /match
// requests for single pairs and batches over HTTP JSON or the compact
// binary wire protocol (content-type negotiated; see internal/wire), with
// micro-batching, a sharded LRU prediction cache and admission control
// (see internal/serve).
//
// Usage:
//
//	emserve -matcher stringsim -addr :8080
//	emserve -matcher gpt-4 -deadline 250ms -queue 2048
//	emserve -matcher ditto -store /var/lib/emserve/snapshots
//	emserve -matcher stringsim -replicas 3 -store /var/lib/emserve/snapshots
//	emserve -replica http://h:8081 -replica http://h:8082
//	emserve -matcher stringsim -loadgen -qps 0 -duration 5s -proto binary
//	emserve -route stringsim,anymatch-gpt2,gpt-4 -route-confidence 0.5
//	emserve -matcher stringsim -slo 'p99<=5ms,shed<=1%' -flight 4096
//	emserve -matcher stringsim -smoke [-replicas 3]
//
// Endpoints:
//
//	POST /match    {"left": [...], "right": [...]} or {"pairs": [...]}
//	GET  /healthz  liveness + loaded matcher
//	GET  /stats    queue depth, batch histogram, cache hit rate,
//	               latency quantiles, dollar cost
//	GET  /slo      burn-rate status of every -slo objective
//
// Fleet mode: -replicas N spawns N in-process replicas — each the server
// the other flags describe, warm-started from -store so only the first
// cold-trains — and -replica URL (repeatable) adopts running ones. -addr
// then serves a front router (see internal/fleet) that consistent-hashes
// the pair-key space across them, fails over, hedges stragglers (-hedge,
// -no-hedge), probes health (-probe-interval) and answers the same
// endpoints, /stats in the fleet schema; -slo also judges its signals.
//
// -slo arms the burn-rate SLO engine (see internal/slo) and, with
// -slo-shed, the breach admission guard; -flight arms the per-request
// flight recorder, with -flight-dump naming the directory breach and
// straggler evidence is written to (validated by emtool trace -flight).
//
// -loadgen replays benchmark pairs against an in-process instance of the
// server the other flags describe and prints its throughput/latency
// report plus, with -slo, the final burn-rate status of every objective,
// where -slo-assert demands a clean run and -slo-expect-breach demands a
// breach plus validating flight evidence.
// -smoke starts the service on an ephemeral port, checks /healthz and
// /match over both protocols, and exits non-zero on any failure; with
// -replicas it runs the fleet gate (fleet_smoke.go). Both are make smoke
// stages.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/flight"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/wire"
)

// config is emserve's command line. serve and front hold what the flags
// say about every server and about the fleet's front router; the parts
// of a serve.Config that belong to one server (registry, start-up facts,
// flight ring) are attached by serveConfig.
type config struct {
	addr  string
	ready eval.ReadySpec
	serve serve.Config

	replicas    uint
	replicaURLs []string
	front       fleet.Config

	routeTiers  string
	routeConf   float64
	routeInject bool

	sloSpec   string
	flightN   int
	flightDir string
	sloAssert bool
	sloExpect bool

	loadgen bool
	load    serve.LoadGenConfig
	dataset string
	jsonOut bool

	smoke     bool
	pprof     bool
	tracePath string
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("emserve", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	cfg.ready.RegisterFlags(fs)
	// The serve.Config tunables: one wiring for the single server and for
	// every fleet replica.
	sc := &cfg.serve
	fs.IntVar(&sc.Workers, "workers", 0, "scoring workers: 0 = one per CPU")
	fs.IntVar(&sc.MaxBatch, "batch", 64, "max pairs per coalesced micro-batch")
	fs.DurationVar(&sc.BatchWait, "batch-wait", 0, "how long a non-full batch waits for stragglers")
	fs.IntVar(&sc.QueueDepth, "queue", 1024, "admission queue depth (requests); full queue sheds with 429")
	fs.IntVar(&sc.MaxPairsPerRequest, "max-pairs", 256, "max pairs per request (larger rejected with 413)")
	fs.DurationVar(&sc.DefaultDeadline, "deadline", 0, "default per-request deadline (0 = none)")
	fs.IntVar(&sc.CacheCapacity, "cache", 1<<16, "prediction cache capacity in entries (0 disables)")
	fs.IntVar(&sc.BreachShedPermille, "slo-shed", 0, "while any objective is in BREACH, shed this permille of cache-miss admissions with 429 (0 disables the guard)")

	fs.UintVar(&cfg.replicas, "replicas", 0, "fleet mode: in-process replicas to spawn behind a front router (0 = one plain server; ignored when -replica URLs are given)")
	fs.Func("replica", "fleet mode: existing replica base URL to adopt (repeatable); disables spawning", func(v string) error {
		cfg.replicaURLs = append(cfg.replicaURLs, v)
		return nil
	})
	fs.DurationVar(&cfg.front.HedgeAfter, "hedge", 0, "fleet mode: fixed straggler threshold (0 = rolling p99, clamped)")
	fs.BoolVar(&cfg.front.HedgeDisabled, "no-hedge", false, "fleet mode: disable hedged requests")
	fs.DurationVar(&cfg.front.ProbeInterval, "probe-interval", 500*time.Millisecond, "fleet mode: replica health-probe interval (drives breaker ejection and recovery)")

	fs.BoolVar(&cfg.loadgen, "loadgen", false, "run the load generator instead of serving")
	fs.Float64Var(&cfg.load.QPS, "qps", 0, "loadgen target request rate (0 = closed-loop maximum)")
	fs.DurationVar(&cfg.load.Duration, "duration", 5*time.Second, "loadgen run duration per phase")
	fs.IntVar(&cfg.load.Concurrency, "concurrency", 8, "loadgen client workers")
	fs.IntVar(&cfg.load.PairsPerRequest, "pairs-per-request", 64, "loadgen pairs per request")
	fs.StringVar(&cfg.dataset, "dataset", "ABT", "loadgen benchmark dataset to replay")
	fs.BoolVar(&cfg.jsonOut, "json", false, "loadgen: print the report as JSON")
	fs.StringVar(&cfg.load.Protocol, "proto", serve.ProtoJSON, "loadgen request protocol: json or binary")

	fs.StringVar(&cfg.routeTiers, "route", "", "serve through a resilient cascade instead of one matcher: comma-separated tiers, cheap to expensive (e.g. stringsim,anymatch-gpt2,gpt-4)")
	fs.Float64Var(&cfg.routeConf, "route-confidence", 0.5, "cascade confidence threshold: pairs below it escalate to the next tier")
	fs.BoolVar(&cfg.routeInject, "route-inject", false, "inject each tier's failure profile (latency tails, faults, rate limits) instead of clean backends")

	fs.StringVar(&cfg.sloSpec, "slo", "", "comma-separated SLO objectives (e.g. 'p99<=5ms@1m/10s,shed<=1%,cost<=$0.25'): arms the burn-rate engine and /slo")
	fs.IntVar(&cfg.flightN, "flight", 0, "flight-recorder ring size in records (0 disables)")
	fs.StringVar(&cfg.flightDir, "flight-dump", "", "directory for flight-evidence JSONL dumps on breach and straggler requests (needs -flight)")
	fs.BoolVar(&cfg.sloAssert, "slo-assert", false, "loadgen: exit non-zero unless every objective stayed OK for the whole run")
	fs.BoolVar(&cfg.sloExpect, "slo-expect-breach", false, "loadgen: exit non-zero unless the run breached an objective and dumped validating flight evidence (needs -flight and -flight-dump)")

	fs.BoolVar(&cfg.smoke, "smoke", false, "start, self-check /healthz and /match, exit; with -replicas, run the fleet gate")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in)")
	fs.StringVar(&cfg.tracePath, "trace", "", "record request/queue/batch/score spans; write JSONL here on shutdown")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}

	if (cfg.sloAssert || cfg.sloExpect) && (!cfg.loadgen || cfg.sloSpec == "") {
		return cfg, fmt.Errorf("-slo-assert and -slo-expect-breach need -loadgen and -slo")
	}
	if cfg.sloExpect && (cfg.flightN <= 0 || cfg.flightDir == "") {
		return cfg, fmt.Errorf("-slo-expect-breach needs -flight and -flight-dump: a breach without evidence is not a pass")
	}
	if cfg.flightDir != "" && cfg.flightN <= 0 {
		return cfg, fmt.Errorf("-flight-dump needs -flight to arm the recorder")
	}
	if cfg.fleetMode() && (cfg.loadgen || cfg.routeTiers != "") {
		return cfg, fmt.Errorf("-loadgen and -route drive one server; drop -replicas/-replica")
	}
	cfg.serve.MatcherName = cfg.ready.Matcher
	cfg.front.MatcherName = cfg.ready.Matcher
	// The front admits what its replicas admit: a larger bound would pass
	// sub-batches they refuse, a smaller one would 413 requests they take.
	cfg.front.MaxPairsPerRequest = cfg.serve.MaxPairsPerRequest
	if cfg.sloSpec != "" {
		specs, err := slo.ParseSpecs(cfg.sloSpec)
		if err != nil {
			return cfg, err
		}
		cfg.serve.SLOSpecs, cfg.front.SLOSpecs = specs, specs
	}
	return cfg, nil
}

func (c config) fleetMode() bool { return c.replicas > 0 || len(c.replicaURLs) > 0 }

// serveConfig returns the serve.Config of one server — the single server
// or the fleet replica called name: the flags' tunables plus the server's
// own registry, start-up facts and flight ring (each replica dumping into
// its own subdirectory of -flight-dump).
func (c config) serveConfig(r *eval.Ready, name string) serve.Config {
	sc := c.serve
	sc.Registry = r.Registry
	sc.Startup = &serve.StartupInfo{Warm: r.Warm, SnapshotHash: r.Hash}
	if r.Warm {
		sc.Startup.RestoreSeconds = r.Seconds
	} else {
		sc.Startup.TrainSeconds = r.Seconds
	}
	if c.flightN > 0 {
		sc.Flight = flight.New(c.flightN)
		if c.flightDir != "" {
			sc.FlightDump = flight.NewDumper(sc.Flight, filepath.Join(c.flightDir, name), 0)
		}
	}
	return sc
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "emserve: "+format+"\n", args...)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.tracePath != "" {
		cfg.serve.Tracer = obs.NewTracer()
	}
	if cfg.fleetMode() {
		if cfg.smoke {
			return runFleetSmoke(cfg)
		}
		return runFleet(cfg)
	}

	var ready *eval.Ready
	var err error
	if cfg.routeTiers != "" {
		// Routed serving: the dispatcher hands batches to the cascade
		// router instead of the single matcher, so the served "matcher" is
		// tier 0 and the snapshot store does not apply.
		ready, cfg.serve.Router, err = buildRouter(cfg)
	} else {
		spec := cfg.ready
		spec.Ref, spec.Logf = "emserve-"+spec.Matcher, logf
		ready, err = eval.ReadyMatcher(spec)
	}
	if err != nil {
		return err
	}
	m := ready.Matcher
	sc := cfg.serveConfig(ready, "")

	if cfg.loadgen {
		return runLoadGen(m, sc, cfg)
	}

	srv, err := serve.New(m, sc)
	if err != nil {
		return err
	}
	if cfg.smoke {
		return runSmoke(srv)
	}

	logf("serving %s (%s semantics) on %s", m.Name(), srv.Semantics(), cfg.addr)
	// Graceful shutdown: stop admitting and drain in-flight batches, then
	// close the listener.
	if err := serveUntilSignal(cfg, srv.Handler(), srv.Shutdown); err != nil {
		return err
	}
	// The drain has finished by the time the listener closes (Shutdown
	// blocks until the workers exit); Shutdown here is an idempotent no-op
	// that only covers listener errors racing the signal path.
	srv.Shutdown()
	st := srv.Stats()
	logf("drained: %d requests ok, %d pairs scored, %d from cache, %d expired, $%.4f total cost",
		st.RequestsOK, st.PairsScored, st.PairsCached, st.PairsExpired, st.TotalCostUSD)
	if e := srv.SLO(); e != nil {
		for _, o := range e.Snapshot() {
			logf("slo: %s", slo.FormatStatus(o))
		}
		for _, p := range srv.FlightDump().Paths() {
			logf("flight evidence: %s", p)
		}
	}
	return cfg.serve.Tracer.WriteFile(cfg.tracePath, os.Stderr)
}

// serveUntilSignal serves handler on -addr until SIGINT or SIGTERM, then
// runs drain and closes the listener — the one shutdown path of the
// single server and the fleet front.
func serveUntilSignal(cfg config, handler http.Handler, drain func()) error {
	if cfg.pprof {
		// pprof is opt-in: profiling endpoints on a production port are a
		// choice, not a default. The import registered them on the default
		// mux, which nothing serves otherwise.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		handler = mux
	}
	hs := &http.Server{Addr: cfg.addr, Handler: handler}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logf("draining...")
		drain()
		_ = hs.Close()
	}()
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// buildRouter assembles the -route cascade: each tier made ready by name
// (fine-tuned tiers train once on the shared transfer library), priced
// through the fail-closed Table-6 rate lookup and wrapped in its
// simulated provider profile (clean unless -route-inject). The returned
// matcher is tier 0 — the identity the server advertises and keys its
// prediction cache on.
func buildRouter(cfg config) (*eval.Ready, *route.Router, error) {
	names := strings.Split(cfg.routeTiers, ",")
	backends := make([]backend.Backend, 0, len(names))
	var tier0 *eval.Ready
	library := &eval.Library{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		rate, err := cost.RateForMatcher(name)
		if err != nil {
			return nil, nil, err
		}
		tier, err := eval.ReadyMatcher(eval.ReadySpec{
			Matcher: name, Seed: cfg.ready.Seed, Parallel: cfg.ready.Parallel,
			Split: "train:" + name, Library: library, Logf: logf,
		})
		if err != nil {
			return nil, nil, err
		}
		p := backend.ProfileFor(name)
		if !cfg.routeInject {
			p = p.Clean()
		}
		backends = append(backends, backend.NewSim(name, tier.Matcher, p, rate, cfg.ready.Seed))
		if tier0 == nil {
			tier0 = tier
		}
	}
	r, err := route.New(route.Config{
		Confidence: cfg.routeConf,
		Deadline:   cfg.serve.DefaultDeadline,
	}, backends...)
	if err != nil {
		return nil, nil, err
	}
	logf("routing cascade %s (confidence %.2f, inject=%v)", strings.Join(names, " -> "), cfg.routeConf, cfg.routeInject)
	return tier0, r, nil
}

// replayPairs loads the -dataset benchmark pairs the loadgen modes replay.
func replayPairs(cfg config) ([]record.Pair, error) {
	d, err := datasets.Generate(cfg.dataset, eval.DatasetSeed)
	if err != nil {
		return nil, fmt.Errorf("loadgen dataset: %w", err)
	}
	pairs := make([]record.Pair, len(d.Pairs))
	for i, p := range d.Pairs {
		pairs[i] = p.Pair
	}
	return pairs, nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runLoadGen replays one benchmark dataset through the server sc
// describes — routed or single-matcher, with whatever SLO engine, breach
// admission guard and flight recorder the flags armed — and renders the
// load report plus the final burn-rate status of every objective.
// -slo-assert demands the run never left OK; -slo-expect-breach demands a
// breach transition AND validating flight evidence on disk, so the breach
// path is tested end to end rather than trusted.
func runLoadGen(m matchers.Matcher, sc serve.Config, cfg config) error {
	pairs, err := replayPairs(cfg)
	if err != nil {
		return err
	}

	// Transitions arrive from the background tick loop; collect breaches
	// under a lock so a flapping objective cannot race the final verdict.
	var (
		mu       sync.Mutex
		breaches []string
	)
	sc.OnSLOTransition = func(tr slo.Transition) {
		logf("slo %s: %s -> %s (%s)", tr.Name, tr.From, tr.To, tr.Status.Spec)
		if tr.To == slo.Breach {
			mu.Lock()
			breaches = append(breaches, tr.Name)
			mu.Unlock()
		}
	}
	srv, err := serve.New(m, sc)
	if err != nil {
		return err
	}
	url, stop, err := serve.Listen(srv.Handler())
	if err != nil {
		srv.Shutdown()
		return err
	}
	logf("replaying %d pairs from %s against %s", len(pairs), cfg.dataset, m.Name())
	rep, lgErr := serve.GenerateLoad(url, pairs, cfg.load)
	stop()
	srv.TickSLO() // final evaluation covering the run's tail
	statuses := srv.SLO().Snapshot()
	worst := srv.SLO().Worst()
	st := srv.Stats()
	srv.Shutdown()
	if lgErr != nil {
		return lgErr
	}
	dumps := srv.FlightDump().Paths()
	mu.Lock()
	nBreach := len(breaches)
	mu.Unlock()

	if cfg.jsonOut {
		out := struct {
			Matcher string           `json:"matcher"`
			Load    serve.LoadReport `json:"load"`
			Stats   serve.Stats      `json:"stats"`
			SLO     []slo.Status     `json:"slo,omitempty"`
			Dumps   []string         `json:"flight_dumps,omitempty"`
		}{Matcher: m.Name(), Load: rep, Stats: st, SLO: statuses, Dumps: dumps}
		if err := printJSON(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("load: %d ok, %d shed (slo %d), %d errors — %.0f pairs/s at %.1f%% cache hits, p50 %.3fms p95 %.3fms p99 %.3fms, cost $%.4f\n",
			rep.OK, rep.Rejected, st.ShedSLO, rep.Errors,
			rep.PairPerSec, 100*st.CacheHitRate, rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.CostUSD)
		for _, o := range statuses {
			fmt.Println("slo:", slo.FormatStatus(o))
		}
		if n := srv.Flight().Len(); n > 0 {
			fmt.Printf("flight: %d records in ring", n)
			if len(dumps) > 0 {
				fmt.Printf(", %d dumps in %s", len(dumps), srv.FlightDump().Dir())
			}
			fmt.Println()
		}
	}

	if cfg.sloAssert {
		if nBreach > 0 || worst != slo.OK {
			return fmt.Errorf("slo-assert: %d breach transitions, final state %s", nBreach, worst)
		}
		fmt.Printf("SLO ASSERT OK: %d objectives stayed OK over %d requests\n", len(statuses), rep.Requests)
	}
	if cfg.sloExpect {
		if nBreach == 0 {
			return fmt.Errorf("slo-expect-breach: no objective breached (final state %s)", worst)
		}
		if len(dumps) == 0 {
			return fmt.Errorf("slo-expect-breach: breach produced no flight dump")
		}
		total := 0
		for _, p := range dumps {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			n, err := flight.Validate(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("slo-expect-breach: %s: %w", p, err)
			}
			total += n
		}
		fmt.Printf("BREACH EVIDENCE OK: %d breach transitions, %d dumps, %d validated flight records\n",
			nBreach, len(dumps), total)
	}
	return nil
}

// runSmoke exposes the service on an ephemeral loopback port, performs the
// checks the smoke gate's serve stage needs (healthz up, a /match round
// trip answering 200 with one prediction over each protocol), and shuts
// down.
func runSmoke(srv *serve.Server) error {
	base, stop, err := serve.Listen(srv.Handler())
	if err != nil {
		return err
	}
	defer func() {
		srv.Shutdown()
		stop()
	}()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("smoke healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke healthz: got %d, want 200", resp.StatusCode)
	}

	body := strings.NewReader(`{"left": ["ipad 4th gen", "apple", "399"], "right": ["apple ipad 4", "apple", "399.00"]}`)
	mresp, err := http.Post(base+"/match", "application/json", body)
	if err != nil {
		return fmt.Errorf("smoke match: %w", err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke match: got %d, want 200", mresp.StatusCode)
	}
	var mr serve.MatchResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		return fmt.Errorf("smoke match: bad response: %w", err)
	}
	if len(mr.Predictions) != 1 {
		return fmt.Errorf("smoke match: got %d predictions, want 1", len(mr.Predictions))
	}

	// Binary-protocol round trip: the same pair as a wire frame must come
	// back 200 with the same decision the JSON path produced.
	pair := record.Pair{
		Left:  record.Record{Values: []string{"ipad 4th gen", "apple", "399"}},
		Right: record.Record{Values: []string{"apple ipad 4", "apple", "399.00"}},
	}
	status, reply, err := serve.PostWire(context.Background(), http.DefaultClient, base, wire.AppendRequest(nil, []record.Pair{pair}, 0))
	if err != nil {
		return fmt.Errorf("smoke wire match: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("smoke wire match: got %d, want 200", status)
	}
	var wr wire.Response
	if err := serve.ParseWireResponse(reply, &wr); err != nil {
		return fmt.Errorf("smoke wire match: %w", err)
	}
	if len(wr.Preds) != 1 || wr.Preds[0] != mr.Predictions[0] {
		return fmt.Errorf("smoke wire match: preds %v disagree with JSON %v", wr.Preds, mr.Predictions)
	}
	fmt.Printf("smoke ok: %s healthz 200, match 200 (prediction=%v), wire 200 (agrees)\n", mr.Matcher, mr.Predictions[0])
	return nil
}
