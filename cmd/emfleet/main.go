// Command emfleet runs the horizontally sharded serving fleet: a front
// router that consistent-hash-partitions the canonical pair-key space
// across N emserve replicas (see internal/fleet). Replicas are either
// spawned in-process (-replicas, warm-started from a shared snapshot
// store so only the first cold-trains) or adopted by URL (-replica,
// repeatable). The front fans each request out by ring ownership, fails
// over to ring successors, hedges stragglers past the rolling p99, and
// can run a rolling canary upgrade with a bit-identity gate before
// cutover.
//
// Usage:
//
//	emfleet -matcher stringsim -replicas 3 -store /var/lib/emfleet
//	emfleet -replica http://h:8081 -replica http://h:8082 -addr :8080
//	emfleet -matcher stringsim -slo 'p99<=250ms,error<=10%'
//	emfleet -smoke
//
// Endpoints (shaped like a single emserve, so clients need no fleet
// code): POST /match (JSON or binary wire), GET /healthz, GET /stats
// (fleet schema: router aggregate + per-replica rows + canary), GET
// /slo, GET /metrics.
//
// -smoke is the make fleet-smoke gate: it boots a 3-replica fleet from
// a throwaway snapshot store (replica 1 cold-trains and saves, 2 and 3
// warm-restore), routes a benchmark workload through the front checking
// bit-identity against a direct single-replica baseline, requires the
// measured per-replica load of that round to stay within 1.5x the mean,
// kills one replica mid-run and asserts nothing is lost, removes it and
// checks the rebalance moved only the dead replica's arc, and runs a
// canary upgrade through the mirror/bit-identity/promote flow. Non-zero
// exit on any violation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/snap"
	"repro/internal/stats"
)

func main() {
	var replicaURLs stringList
	var (
		addr        = flag.String("addr", ":8090", "front router listen address")
		matcherName = flag.String("matcher", "stringsim", "matcher the fleet serves: "+strings.Join(matchers.Names(), ", "))
		nReplicas   = flag.Int("replicas", 3, "in-process replicas to spawn (ignored when -replica URLs are given)")
		storeDir    = flag.String("store", "", "shared snapshot store for warm-starting spawned replicas (empty = train each)")
		seed        = flag.Uint64("seed", 1, "random seed for matcher training")
		parallel    = flag.Int("parallel", 0, "workers for transfer-library generation: 0 = one per CPU")
		vnodes      = flag.Int("vnodes", 0, "virtual nodes per replica (0 = default)")
		hedgeAfter  = flag.Duration("hedge", 0, "fixed straggler threshold (0 = rolling p99, clamped)")
		noHedge     = flag.Bool("no-hedge", false, "disable hedged requests")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "replica health-probe interval (drives breaker ejection and recovery)")
		sloSpec     = flag.String("slo", "", "fleet-level SLO objectives over the router's own signals (latency/shed/error)")

		smoke      = flag.Bool("smoke", false, "run the fleet-smoke gate and exit")
		smokePairs = flag.Int("smoke-pairs", 512, "workload size for -smoke")
	)
	flag.Var(&replicaURLs, "replica", "existing replica base URL to adopt (repeatable); disables spawning")
	flag.Parse()

	cfg := fleetConfig{
		addr: *addr, matcher: *matcherName, replicas: *nReplicas,
		urls: replicaURLs, store: *storeDir, seed: *seed, parallel: *parallel,
		vnodes: *vnodes, hedgeAfter: *hedgeAfter, noHedge: *noHedge,
		probeEvery: *probeEvery, sloSpec: *sloSpec,
		smokePairs: *smokePairs,
	}
	var err error
	if *smoke {
		err = runSmoke(cfg)
	} else {
		err = runServe(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "emfleet:", err)
		os.Exit(1)
	}
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

type fleetConfig struct {
	addr     string
	matcher  string
	replicas int
	urls     []string
	store    string
	seed     uint64
	parallel int

	vnodes     int
	hedgeAfter time.Duration
	noHedge    bool
	probeEvery time.Duration
	sloSpec    string

	smokePairs int
}

func (c fleetConfig) frontConfig() (fleet.Config, error) {
	fc := fleet.Config{
		MatcherName:   c.matcher,
		VNodes:        c.vnodes,
		HedgeAfter:    c.hedgeAfter,
		HedgeDisabled: c.noHedge,
		ProbeInterval: c.probeEvery,
	}
	if c.sloSpec != "" {
		specs, err := slo.ParseSpecs(c.sloSpec)
		if err != nil {
			return fc, err
		}
		fc.SLOSpecs = specs
	}
	return fc, nil
}

// replicaName is the stable ring identity of the i-th replica. Keep it
// stable across restarts and canary cutovers or the keyspace reshuffles.
func replicaName(i int) string { return fmt.Sprintf("r%d", i+1) }

// spawned is one in-process replica: a full emserve pipeline on an
// ephemeral loopback port.
type spawned struct {
	name string
	url  string
	srv  *serve.Server
	stop func()

	warm bool
	hash string // snapshot the replica booted from ("" without a store)
	key  snap.Key
}

// kill abruptly closes the replica's listener and drains its workers —
// the crash injection the smoke gate uses.
func (s *spawned) kill() {
	s.stop()
	s.srv.Shutdown()
}

// spawnReplicas boots n in-process replicas of the same matcher. With a
// store every replica shares one snapshot key (same matcher, config,
// transfer data and seed), so the first cold-trains and saves while the
// rest warm-restore bit-identical state; without one each replica
// trains independently (still identical: same seed, same data).
func spawnReplicas(n int, cfg fleetConfig) ([]*spawned, error) {
	if n <= 0 {
		return nil, fmt.Errorf("need at least one replica")
	}
	m0, needsTraining, err := matchers.ByName(cfg.matcher)
	if err != nil {
		return nil, err
	}
	_, canSnap := m0.(snap.Snapshotter)
	if cfg.store != "" && !canSnap {
		return nil, fmt.Errorf("matcher %s does not snapshot; drop -store", cfg.matcher)
	}
	var library []*record.Dataset
	if needsTraining {
		library = datasets.GenerateAllParallel(eval.DatasetSeed, cfg.parallel)
	}
	out := make([]*spawned, 0, n)
	for i := 0; i < n; i++ {
		s, err := spawnOne(replicaName(i), cfg, library, needsTraining)
		if err != nil {
			for _, p := range out {
				p.kill()
			}
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func spawnOne(name string, cfg fleetConfig, library []*record.Dataset, needsTraining bool) (*spawned, error) {
	m, _, err := matchers.ByName(cfg.matcher)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry(obs.Label{Key: "replica", Value: name})
	info := &serve.StartupInfo{}
	sp := &spawned{name: name}

	var st *snap.Store
	if cfg.store != "" {
		if st, err = snap.Open(cfg.store, reg); err != nil {
			return nil, err
		}
		sp.key = snap.Key{
			Matcher: cfg.matcher,
			Config:  matchers.ConfigOf(m),
			Data:    record.DatasetFingerprints(library),
			Seed:    cfg.seed,
		}
	}
	rng := stats.NewRNG(cfg.seed)
	start := time.Now()
	restored := false
	if st != nil {
		if _, err := st.Load(sp.key, m.(snap.Snapshotter)); err == nil {
			restored = true
			info.Warm = true
			info.RestoreSeconds = time.Since(start).Seconds()
			info.SnapshotHash = sp.key.Hash()
			sp.warm, sp.hash = true, sp.key.Hash()
		} else if !errors.Is(err, snap.ErrNotFound) {
			return nil, fmt.Errorf("%s: snapshot load: %w", name, err)
		}
	}
	if !restored {
		if needsTraining {
			fmt.Fprintf(os.Stderr, "emfleet: %s: training %s...\n", name, m.Name())
		}
		m.Train(library, rng.Split("train"))
		info.TrainSeconds = time.Since(start).Seconds()
		if st != nil {
			hash, err := st.Save(sp.key, m.Name(), m.(snap.Snapshotter))
			if err != nil {
				return nil, fmt.Errorf("%s: saving snapshot: %w", name, err)
			}
			info.SnapshotHash = hash
			sp.hash = hash
		}
	}

	srv, err := serve.New(m, serve.Config{
		MatcherName: cfg.matcher,
		Registry:    reg,
		Startup:     info,
	})
	if err != nil {
		return nil, err
	}
	url, stop, err := serve.Listen(srv)
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	sp.url, sp.srv, sp.stop = url, srv, stop
	return sp, nil
}

// runServe is the long-running mode: build the replica set (spawned or
// adopted), put the front router over it and serve until interrupted.
func runServe(cfg fleetConfig) error {
	fc, err := cfg.frontConfig()
	if err != nil {
		return err
	}
	front, err := fleet.New(fc)
	if err != nil {
		return err
	}
	var procs []*spawned
	defer func() {
		front.Close()
		for _, p := range procs {
			p.kill()
		}
	}()
	if len(cfg.urls) > 0 {
		for i, u := range cfg.urls {
			if err := front.AddReplica(replicaName(i), u); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "emfleet: adopted %d replicas\n", len(cfg.urls))
	} else {
		procs, err = spawnReplicas(cfg.replicas, cfg)
		if err != nil {
			return err
		}
		for _, p := range procs {
			if err := front.AddReplica(p.name, p.url); err != nil {
				return err
			}
			how := "cold"
			if p.warm {
				how = "warm"
			}
			fmt.Fprintf(os.Stderr, "emfleet: %s %s-started on %s (snapshot %.12s)\n", p.name, how, p.url, p.hash)
		}
	}

	hs := &http.Server{Addr: cfg.addr, Handler: front.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "emfleet: draining...")
		_ = hs.Close()
	}()
	fmt.Fprintf(os.Stderr, "emfleet: fronting %s across %d replicas on %s\n",
		cfg.matcher, front.Ring().Len(), cfg.addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	st := front.Stats(context.Background())
	fmt.Fprintf(os.Stderr,
		"emfleet: drained: %d requests ok, %d pairs, %d hedges (%d won), %d failovers, $%.4f cost\n",
		st.Fleet.RequestsOK, st.Fleet.Pairs, st.Fleet.Hedges, st.Fleet.HedgeWins,
		st.Fleet.Failovers, st.Fleet.TotalCostUSD)
	return nil
}
