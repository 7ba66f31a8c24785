package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// replicaName is the stable ring identity of the i-th replica. Keep it
// stable across restarts and canary cutovers or the keyspace reshuffles.
func replicaName(i int) string { return fmt.Sprintf("r%d", i+1) }

// spawned is one in-process replica: the full serving pipeline the flags
// describe, on an ephemeral loopback port.
type spawned struct {
	name  string
	url   string
	srv   *serve.Server
	stop  func()
	ready *eval.Ready // how its matcher started: warm or cold, from which snapshot
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
func spawnReplicas(n int, cfg config) ([]*spawned, error) {
	spec := cfg.ready
	spec.Ref = "emserve-" + spec.Matcher
	spec.Library = &eval.Library{}
	out := make([]*spawned, 0, n)
	for i := 0; i < n; i++ {
		s, err := spawnReplica(replicaName(i), cfg, spec)
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

// spawnReplica readies one matcher as spec says (spec.Hash set boots the
// canary from that artifact) and serves it under cfg's serve.Config.
func spawnReplica(name string, cfg config, spec eval.ReadySpec) (*spawned, error) {
	spec.Registry = obs.NewRegistry(obs.Label{Key: "replica", Value: name})
	spec.Logf = func(format string, args ...any) { logf(name+": "+format, args...) }
	ready, err := eval.ReadyMatcher(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	srv, err := serve.New(ready.Matcher, cfg.serveConfig(ready, name))
	if err != nil {
		return nil, err
	}
	url, stop, err := serve.Listen(srv.Handler())
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	return &spawned{name: name, url: url, srv: srv, stop: stop, ready: ready}, nil
}

// runFleet is the long-running fleet mode: build the replica set (spawned
// or adopted), put the front router over it and serve until interrupted.
func runFleet(cfg config) error {
	front, err := fleet.New(cfg.front)
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
	if len(cfg.replicaURLs) > 0 {
		for i, u := range cfg.replicaURLs {
			if err := front.AddReplica(replicaName(i), u); err != nil {
				return err
			}
		}
		logf("adopted %d replicas", len(cfg.replicaURLs))
	} else {
		procs, err = spawnReplicas(int(cfg.replicas), cfg)
		if err != nil {
			return err
		}
		for _, p := range procs {
			if err := front.AddReplica(p.name, p.url); err != nil {
				return err
			}
			logf("%s serving on %s (snapshot %.12s)", p.name, p.url, p.ready.Hash)
		}
	}

	logf("fronting %s across %d replicas on %s", cfg.ready.Matcher, front.Ring().Len(), cfg.addr)
	if err := serveUntilSignal(cfg, front.Handler(), func() {}); err != nil {
		return err
	}
	st := front.Stats(context.Background())
	logf("drained: %d requests ok, %d pairs, %d hedges (%d won), %d failovers, $%.4f cost",
		st.Fleet.RequestsOK, st.Fleet.Pairs, st.Fleet.Hedges, st.Fleet.HedgeWins,
		st.Fleet.Failovers, st.Fleet.TotalCostUSD)
	return cfg.serve.Tracer.WriteFile(cfg.tracePath, os.Stderr)
}
