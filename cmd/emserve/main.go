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
//	emserve -matcher stringsim -loadgen -qps 0 -duration 5s
//	emserve -matcher stringsim -loadgen -proto binary
//	emserve -route stringsim,anymatch-gpt2,gpt-4 -route-confidence 0.5
//	emserve -matcher stringsim -slo 'p99<=5ms,shed<=1%' -flight 4096
//	emserve -matcher stringsim -smoke
//
// Endpoints:
//
//	POST /match    {"left": [...], "right": [...]} or {"pairs": [...]}
//	GET  /healthz  liveness + loaded matcher
//	GET  /stats    queue depth, batch histogram, cache hit rate,
//	               latency quantiles, dollar cost
//	GET  /slo      burn-rate status of every -slo objective
//
// -slo arms the burn-rate SLO engine (see internal/slo) and, with
// -slo-shed, the breach admission guard; -flight arms the per-request
// flight recorder, with -flight-dump naming the directory breach and
// straggler evidence is written to (validated by tracecheck -flight).
//
// -loadgen replays benchmark pairs against an in-process instance and
// prints a baseline-versus-served throughput/latency report; with -slo it
// instead drives the fully armed server and renders the final burn-rate
// status of every objective, where -slo-assert demands a clean run and
// -slo-expect-breach demands a breach plus validating flight evidence
// (the make slo-smoke gates). -smoke starts the service on an ephemeral
// port, checks /healthz and /match, and exits non-zero on any failure
// (the make serve-smoke gate).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/flight"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		matcherName = flag.String("matcher", "stringsim", "matcher to serve: "+strings.Join(matchers.Names(), ", "))
		workers     = flag.Int("workers", 0, "scoring workers: 0 = one per CPU")
		maxBatch    = flag.Int("batch", 64, "max pairs per coalesced micro-batch")
		batchWait   = flag.Duration("batch-wait", 0, "how long a non-full batch waits for stragglers")
		queueDepth  = flag.Int("queue", 1024, "admission queue depth (requests); full queue sheds with 429")
		maxPairs    = flag.Int("max-pairs", 256, "max pairs per request (larger rejected with 413)")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
		cacheCap    = flag.Int("cache", 1<<16, "prediction cache capacity in entries (0 disables)")
		seed        = flag.Uint64("seed", 1, "random seed for matcher training")
		parallel    = flag.Int("parallel", 0, "workers for transfer-library generation: 0 = one per CPU")
		storeDir    = flag.String("store", "", "snapshot store directory: restore the trained matcher on startup (warm start), train-then-save on miss")

		loadgen  = flag.Bool("loadgen", false, "run the load generator instead of serving")
		qps      = flag.Float64("qps", 0, "loadgen target request rate (0 = closed-loop maximum)")
		duration = flag.Duration("duration", 5*time.Second, "loadgen run duration per phase")
		conc     = flag.Int("concurrency", 8, "loadgen client workers")
		perReq   = flag.Int("pairs-per-request", 64, "loadgen pairs per request")
		dataset  = flag.String("dataset", "ABT", "loadgen benchmark dataset to replay")
		jsonOut  = flag.Bool("json", false, "loadgen: print the report as JSON")
		proto    = flag.String("proto", serve.ProtoJSON, "loadgen request protocol: json or binary")

		routeTiers = flag.String("route", "", "serve through a resilient cascade instead of one matcher: comma-separated tiers, cheap to expensive (e.g. stringsim,anymatch-gpt2,gpt-4)")
		routeConf  = flag.Float64("route-confidence", 0.5, "cascade confidence threshold: pairs below it escalate to the next tier")
		routeInj   = flag.Bool("route-inject", false, "inject each tier's failure profile (latency tails, faults, rate limits) instead of clean backends")

		sloSpec   = flag.String("slo", "", "comma-separated SLO objectives (e.g. 'p99<=5ms@1m/10s,shed<=1%,cost<=$0.25'): arms the burn-rate engine and /slo")
		sloShed   = flag.Int("slo-shed", 0, "while any objective is in BREACH, shed this permille of cache-miss admissions with 429 (0 disables the guard)")
		flightN   = flag.Int("flight", 0, "flight-recorder ring size in records (0 disables)")
		flightDir = flag.String("flight-dump", "", "directory for flight-evidence JSONL dumps on breach and straggler requests (needs -flight)")
		sloAssert = flag.Bool("slo-assert", false, "loadgen: exit non-zero unless every objective stayed OK for the whole run")
		sloExpect = flag.Bool("slo-expect-breach", false, "loadgen: exit non-zero unless the run breached an objective and dumped validating flight evidence (needs -flight and -flight-dump)")

		smoke = flag.Bool("smoke", false, "start, self-check /healthz and /match, exit")

		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in)")
		tracePath = flag.String("trace", "", "record request/queue/batch/score spans; write JSONL here on shutdown")
	)
	flag.Parse()

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	if err := run(runConfig{
		addr: *addr, matcher: *matcherName, seed: *seed, parallel: *parallel,
		store:      *storeDir,
		routeTiers: *routeTiers, routeConf: *routeConf, routeInject: *routeInj,
		sloSpec: *sloSpec, sloShed: *sloShed,
		flightN: *flightN, flightDir: *flightDir,
		sloAssert: *sloAssert, sloExpect: *sloExpect,
		loadgen: *loadgen, qps: *qps, duration: *duration, conc: *conc,
		perReq: *perReq, dataset: *dataset, jsonOut: *jsonOut, proto: *proto,
		smoke: *smoke,
		pprof: *pprofOn, tracePath: *tracePath,
		serveCfg: serve.Config{
			MatcherName:        *matcherName,
			Workers:            *workers,
			MaxBatch:           *maxBatch,
			BatchWait:          *batchWait,
			QueueDepth:         *queueDepth,
			MaxPairsPerRequest: *maxPairs,
			DefaultDeadline:    *deadline,
			CacheCapacity:      *cacheCap,
			Tracer:             tracer,
		},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "emserve:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	addr     string
	matcher  string
	seed     uint64
	parallel int
	store    string
	serveCfg serve.Config

	routeTiers  string
	routeConf   float64
	routeInject bool

	sloSpec   string
	sloShed   int
	flightN   int
	flightDir string
	sloAssert bool
	sloExpect bool

	loadgen  bool
	qps      float64
	duration time.Duration
	conc     int
	perReq   int
	dataset  string
	jsonOut  bool
	proto    string

	smoke     bool
	pprof     bool
	tracePath string
}

func run(cfg runConfig) error {
	if (cfg.sloAssert || cfg.sloExpect) && (!cfg.loadgen || cfg.sloSpec == "") {
		return fmt.Errorf("-slo-assert and -slo-expect-breach need -loadgen and -slo")
	}
	if cfg.sloExpect && (cfg.flightN <= 0 || cfg.flightDir == "") {
		return fmt.Errorf("-slo-expect-breach needs -flight and -flight-dump: a breach without evidence is not a pass")
	}
	if cfg.flightDir != "" && cfg.flightN <= 0 {
		return fmt.Errorf("-flight-dump needs -flight to arm the recorder")
	}
	if cfg.sloSpec != "" {
		specs, err := slo.ParseSpecs(cfg.sloSpec)
		if err != nil {
			return err
		}
		cfg.serveCfg.SLOSpecs = specs
		cfg.serveCfg.BreachShedPermille = cfg.sloShed
	}
	if cfg.flightN > 0 {
		rec := flight.New(cfg.flightN)
		cfg.serveCfg.Flight = rec
		if cfg.flightDir != "" {
			cfg.serveCfg.FlightDump = flight.NewDumper(rec, cfg.flightDir, 0)
		}
	}

	var (
		m       matchers.Matcher
		startup *serve.StartupInfo
		reg     *obs.Registry
		err     error
	)
	if cfg.routeTiers != "" {
		// Routed serving: the dispatcher hands batches to the cascade
		// router instead of the single matcher, so the served "matcher" is
		// tier 0 and the snapshot store does not apply.
		m, cfg.serveCfg.Router, err = buildRouter(cfg)
		startup = &serve.StartupInfo{}
	} else {
		m, startup, reg, err = loadMatcher(cfg.matcher, cfg.seed, cfg.parallel, cfg.store)
	}
	if err != nil {
		return err
	}

	if cfg.loadgen {
		if cfg.serveCfg.SLOSpecs != nil || cfg.serveCfg.Flight != nil {
			return runSLOLoadGen(m, cfg)
		}
		return runLoadGen(m, cfg)
	}

	cfg.serveCfg.Registry = reg
	cfg.serveCfg.Startup = startup
	srv, err := serve.New(m, cfg.serveCfg)
	if err != nil {
		return err
	}

	if cfg.smoke {
		return runSmoke(srv)
	}

	handler := srv.Handler()
	if cfg.pprof {
		// pprof is opt-in: profiling endpoints on a production port are a
		// choice, not a default.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Addr: cfg.addr, Handler: handler}
	// Graceful shutdown on SIGINT/SIGTERM: stop admitting, drain in-flight
	// batches, then close the listener.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "emserve: draining...")
		srv.Shutdown()
		_ = hs.Close()
	}()
	fmt.Fprintf(os.Stderr, "emserve: serving %s (%s semantics) on %s\n",
		m.Name(), srv.Semantics(), cfg.addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	// The drain has finished by the time ListenAndServe returns (Shutdown
	// blocks until the workers exit); Shutdown here is an idempotent no-op
	// that only covers listener errors racing the signal path.
	srv.Shutdown()
	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"emserve: drained: %d requests ok, %d pairs scored, %d from cache, %d expired, $%.4f total cost\n",
		st.RequestsOK, st.PairsScored, st.PairsCached, st.PairsExpired, st.TotalCostUSD)
	if e := srv.SLO(); e != nil {
		for _, o := range e.Snapshot() {
			fmt.Fprintln(os.Stderr, "emserve: slo:", slo.FormatStatus(o))
		}
		for _, p := range srv.FlightDump().Paths() {
			fmt.Fprintln(os.Stderr, "emserve: flight evidence:", p)
		}
	}
	if tr := srv.Tracer(); tr != nil && cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "emserve: wrote %d spans to %s\n", tr.Len(), cfg.tracePath)
	}
	return nil
}

// loadMatcher readies the matcher for serving. Without a store this is
// the same startup path as cmd/emmatch: build, then train (fine-tuned
// matchers on the built-in transfer library). With -store, the trained
// state is restored from the snapshot store when an artifact exists for
// (matcher, config, transfer data, seed) — a warm start that skips
// training entirely and predicts bit-identically to a cold one — and a
// miss trains as usual, then saves the snapshot so the next start is
// warm. The returned registry (non-nil only with a store) carries the
// store's hit/miss/latency metrics plus the startup gauges, and is
// installed into the server so everything lands on one /metrics page.
func loadMatcher(name string, seed uint64, parallel int, storeDir string) (matchers.Matcher, *serve.StartupInfo, *obs.Registry, error) {
	m, needsTraining, err := matchers.ByName(name)
	if err != nil {
		return nil, nil, nil, err
	}
	info := &serve.StartupInfo{}
	var (
		reg *obs.Registry
		st  *snap.Store
		key snap.Key
	)
	snapper, canSnap := m.(snap.Snapshotter)
	if storeDir != "" && canSnap {
		reg = obs.NewRegistry(obs.Label{Key: "matcher", Value: m.Name()})
		if st, err = snap.Open(storeDir, reg); err != nil {
			return nil, nil, nil, err
		}
	}
	rng := stats.NewRNG(seed)
	var library []*record.Dataset
	if needsTraining {
		library = datasets.GenerateAllParallel(eval.DatasetSeed, parallel)
	}
	if st != nil {
		key = snap.Key{
			Matcher: name,
			Config:  matchers.ConfigOf(m),
			Data:    record.DatasetFingerprints(library),
			Seed:    seed,
		}
		start := time.Now()
		if _, err := st.Load(key, snapper); err == nil {
			info.Warm = true
			info.RestoreSeconds = time.Since(start).Seconds()
			info.SnapshotHash = key.Hash()
			fmt.Fprintf(os.Stderr, "emserve: warm start: restored %s from snapshot %.12s in %.3fs\n",
				m.Name(), info.SnapshotHash, info.RestoreSeconds)
			return m, info, reg, nil
		} else if !errors.Is(err, snap.ErrNotFound) {
			fmt.Fprintf(os.Stderr, "emserve: snapshot load failed (%v); training from scratch\n", err)
		}
	}
	start := time.Now()
	if needsTraining {
		fmt.Fprintf(os.Stderr, "emserve: training %s on the built-in transfer library...\n", m.Name())
		m.Train(library, rng.Split("train"))
		fmt.Fprintf(os.Stderr, "emserve: trained in %.1fs\n", time.Since(start).Seconds())
	} else {
		m.Train(nil, rng.Split("train"))
	}
	info.TrainSeconds = time.Since(start).Seconds()
	if st != nil {
		hash, err := st.Save(key, m.Name(), snapper)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("saving snapshot: %w", err)
		}
		if err := st.SetRef("emserve-"+name, hash); err != nil {
			return nil, nil, nil, err
		}
		info.SnapshotHash = hash
		fmt.Fprintf(os.Stderr, "emserve: cold start: trained in %.3fs, saved snapshot %.12s (next start is warm)\n",
			info.TrainSeconds, hash)
	}
	return m, info, reg, nil
}

// buildRouter assembles the -route cascade: each tier resolved by name,
// fine-tuned tiers trained once on the built-in transfer library, every
// tier priced through the fail-closed Table-6 rate lookup and wrapped in
// its simulated provider profile (clean unless -route-inject). The
// returned matcher is tier 0 — the identity the server advertises and
// keys its prediction cache on.
func buildRouter(cfg runConfig) (matchers.Matcher, *route.Router, error) {
	names := strings.Split(cfg.routeTiers, ",")
	backends := make([]backend.Backend, 0, len(names))
	var tier0 matchers.Matcher
	rng := stats.NewRNG(cfg.seed)
	var library []*record.Dataset
	for _, name := range names {
		name = strings.TrimSpace(name)
		m, needsTraining, err := matchers.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		rate, err := cost.RateForMatcher(name)
		if err != nil {
			return nil, nil, err
		}
		if needsTraining {
			if library == nil {
				library = datasets.GenerateAllParallel(eval.DatasetSeed, cfg.parallel)
			}
			fmt.Fprintf(os.Stderr, "emserve: training cascade tier %s...\n", m.Name())
			start := time.Now()
			m.Train(library, rng.Split("train:"+name))
			fmt.Fprintf(os.Stderr, "emserve: trained in %.1fs\n", time.Since(start).Seconds())
		} else {
			m.Train(nil, rng.Split("train:"+name))
		}
		p := backend.ProfileFor(name)
		if !cfg.routeInject {
			p = p.Clean()
		}
		backends = append(backends, backend.NewSim(name, m, p, rate, cfg.seed))
		if tier0 == nil {
			tier0 = m
		}
	}
	r, err := route.New(route.Config{
		Confidence: cfg.routeConf,
		Deadline:   cfg.serveCfg.DefaultDeadline,
	}, backends...)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "emserve: routing cascade %s (confidence %.2f, inject=%v)\n",
		strings.Join(names, " -> "), cfg.routeConf, cfg.routeInject)
	return tier0, r, nil
}

// runLoadGen replays one benchmark dataset's pairs through the serving
// pipeline and prints the baseline-versus-served comparison.
func runLoadGen(m matchers.Matcher, cfg runConfig) error {
	d, err := datasets.Generate(cfg.dataset, eval.DatasetSeed)
	if err != nil {
		return fmt.Errorf("loadgen dataset: %w", err)
	}
	pairs := make([]record.Pair, len(d.Pairs))
	for i, p := range d.Pairs {
		pairs[i] = p.Pair
	}
	fmt.Fprintf(os.Stderr, "emserve: replaying %d pairs from %s against %s\n",
		len(pairs), d.Name, m.Name())
	cmp, err := serve.CompareServing(m, cfg.matcher, pairs, serve.LoadGenConfig{
		QPS:             cfg.qps,
		Duration:        cfg.duration,
		Concurrency:     cfg.conc,
		PairsPerRequest: cfg.perReq,
		Protocol:        cfg.proto,
	})
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cmp)
	}
	fmt.Print(serve.RenderComparison(cmp))
	return nil
}

// runSLOLoadGen replays one benchmark dataset through a fully armed
// server — SLO engine, breach admission guard, flight recorder, routed
// or single-matcher — and renders the load report plus the final
// burn-rate status of every objective. -slo-assert demands the run never
// left OK; -slo-expect-breach demands a breach transition AND validating
// flight evidence on disk, so the breach path is tested end to end
// rather than trusted.
func runSLOLoadGen(m matchers.Matcher, cfg runConfig) error {
	d, err := datasets.Generate(cfg.dataset, eval.DatasetSeed)
	if err != nil {
		return fmt.Errorf("loadgen dataset: %w", err)
	}
	pairs := make([]record.Pair, len(d.Pairs))
	for i, p := range d.Pairs {
		pairs[i] = p.Pair
	}

	// Transitions arrive from the background tick loop; collect breaches
	// under a lock so a flapping objective cannot race the final verdict.
	var (
		mu       sync.Mutex
		breaches []string
	)
	cfg.serveCfg.OnSLOTransition = func(tr slo.Transition) {
		fmt.Fprintf(os.Stderr, "emserve: slo %s: %s -> %s (%s)\n", tr.Name, tr.From, tr.To, tr.Status.Spec)
		if tr.To == slo.Breach {
			mu.Lock()
			breaches = append(breaches, tr.Name)
			mu.Unlock()
		}
	}
	srv, err := serve.New(m, cfg.serveCfg)
	if err != nil {
		return err
	}
	url, stop, err := serve.Listen(srv)
	if err != nil {
		srv.Shutdown()
		return err
	}
	fmt.Fprintf(os.Stderr, "emserve: replaying %d pairs from %s against %s under SLO %q\n",
		len(pairs), d.Name, m.Name(), cfg.sloSpec)
	rep, lgErr := serve.GenerateLoad(url, pairs, serve.LoadGenConfig{
		QPS:             cfg.qps,
		Duration:        cfg.duration,
		Concurrency:     cfg.conc,
		PairsPerRequest: cfg.perReq,
		Protocol:        cfg.proto,
	})
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("load: %d ok, %d shed (slo %d), %d errors — %.0f pairs/s, p50 %.3fms p95 %.3fms p99 %.3fms, cost $%.4f\n",
			rep.OK, rep.Rejected, st.ShedSLO, rep.Errors,
			rep.PairPerSec, rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.CostUSD)
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
// checks the serve-smoke Make target needs (healthz up, a /match round
// trip answering 200 with one prediction), and shuts down.
func runSmoke(srv *serve.Server) error {
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = hs.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		_ = hs.Close()
	}()
	base := "http://" + ln.Addr().String()

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
