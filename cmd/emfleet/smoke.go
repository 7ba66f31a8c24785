package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/wire"
)

// runSmoke is the make fleet-smoke gate. Every phase asserts; the first
// violated invariant aborts with a non-nil error (exit 1 in main).
//
//  1. Warm start: 3 replicas boot from a throwaway snapshot store —
//     replica 1 cold-trains and saves, replicas 2 and 3 must restore warm.
//  2. Baseline: the whole workload through replica 1 directly, then
//     through the front with all 3 replicas up — bit-identical, all
//     requests answered.
//  3. Balance: the pairs each replica actually answered during the fleet
//     round (its /stats delta of pairs_scored + pairs_cached) must stay
//     within 1.5x the mean — measured placement balance, not a
//     throughput (benchmark/README.md has the measured fleet-hit figure).
//  4. Crash: one replica is killed mid-run; every request must still be
//     answered correctly (failover), nothing permanently lost.
//  5. Rebalance: removing the dead replica moves only its arc — the
//     moved-key count equals its prior ownership and stays near fair.
//  6. Canary: a canary boots from a different snapshot (PickCanary),
//     mirrored traffic must compare bit-identical, promotion cuts the
//     ring member over to the canary URL, the old process drains, and
//     the workload still answers correctly after cutover.
func runSmoke(cfg fleetConfig) error {
	tmp, err := os.MkdirTemp("", "emfleet-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg.store = tmp
	if cfg.probeEvery <= 0 {
		cfg.probeEvery = 200 * time.Millisecond
	}

	// Phase 1: warm-start fleet from the shared store.
	procs, err := spawnReplicas(3, cfg)
	if err != nil {
		return err
	}
	byName := make(map[string]*spawned, len(procs))
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	for i, p := range procs {
		byName[p.name] = p
		if i == 0 && p.warm {
			return fmt.Errorf("phase 1: %s restored warm from an empty store", p.name)
		}
		if i > 0 && !p.warm {
			return fmt.Errorf("phase 1: %s cold-trained; want warm restore from %s's snapshot", p.name, procs[0].name)
		}
		if p.hash != procs[0].hash {
			return fmt.Errorf("phase 1: %s booted from snapshot %.12s, want %.12s", p.name, p.hash, procs[0].hash)
		}
	}
	fmt.Printf("phase 1: %s cold-trained and saved %.12s; r2, r3 warm-restored\n", procs[0].name, procs[0].hash)

	fc, err := cfg.frontConfig()
	if err != nil {
		return err
	}
	// Mirror every canary-owned pair and keep the promotion sample small
	// enough that one workload round clears it.
	fc.MirrorPermille = 1000
	fc.CanaryMinSample = 32
	front, err := fleet.New(fc)
	if err != nil {
		return err
	}
	defer front.Close()
	for _, p := range procs {
		if err := front.AddReplica(p.name, p.url); err != nil {
			return err
		}
	}
	frontURL, stopFront, err := listenFront(front)
	if err != nil {
		return err
	}
	defer stopFront()

	pairs, err := smokeWorkload(cfg.smokePairs)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Phase 2: direct single-replica baseline, then the fleet must agree.
	baseline, _, err := runRound(client, procs[0].url, pairs)
	if err != nil {
		return fmt.Errorf("phase 2 baseline: %w", err)
	}
	before, err := replicaLoads(client, procs)
	if err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	fleetPreds, batches, err := runRound(client, frontURL, pairs)
	if err != nil {
		return fmt.Errorf("phase 2 fleet: %w", err)
	}
	after, err := replicaLoads(client, procs)
	if err != nil {
		return fmt.Errorf("phase 3: %w", err)
	}
	if err := samePreds(baseline, fleetPreds); err != nil {
		return fmt.Errorf("phase 2: fleet diverges from single replica: %w", err)
	}
	if err := serve.FetchHealthz(context.Background(), client, frontURL); err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	st := front.Stats(context.Background())
	if st.Fleet.Replicas != 3 || st.Fleet.Healthy != 3 {
		return fmt.Errorf("phase 2: /stats reports %d/%d healthy, want 3/3", st.Fleet.Healthy, st.Fleet.Replicas)
	}
	fmt.Printf("phase 2: %d batches (%d pairs) through 3 replicas — bit-identical to the single-replica baseline\n", batches, len(pairs))

	// Phase 3: measured placement balance of the fleet round.
	var most, sum int64
	fmt.Print("phase 3: per-replica load")
	for i, p := range procs {
		d := after[i] - before[i]
		if d > most {
			most = d
		}
		sum += d
		fmt.Printf(" %s=%d", p.name, d)
	}
	if sum != int64(len(pairs)) {
		return fmt.Errorf("phase 3: replicas answered %d pairs in the fleet round, want %d", sum, len(pairs))
	}
	imbalance := float64(most) * float64(len(procs)) / float64(sum)
	if imbalance > 1.5 {
		return fmt.Errorf("phase 3: most-loaded replica answered %d of %d pairs: max/mean %.2f > 1.5", most, sum, imbalance)
	}
	fmt.Printf(" — max/mean %.2f\n", imbalance)

	// Phase 4: kill r3 mid-round. Every request must still be answered,
	// and answered correctly — the front fails its sub-batches over to
	// ring successors.
	khs := keyHashes(pairs)
	ringBefore := front.Ring()
	victim := byName["r3"]
	killAt := len(pairs) / 2
	crashPreds := make([]bool, 0, len(pairs))
	killed := false
	for start := 0; start < len(pairs); start += smokeBatch {
		if !killed && start >= killAt {
			victim.kill()
			killed = true
		}
		got, err := postWire(client, frontURL, batch(pairs, start))
		if err != nil {
			return fmt.Errorf("phase 4: request lost after killing r3 (batch at %d): %w", start, err)
		}
		crashPreds = append(crashPreds, got...)
	}
	if err := samePreds(baseline, crashPreds); err != nil {
		return fmt.Errorf("phase 4: predictions diverged after crash: %w", err)
	}
	st = front.Stats(context.Background())
	if st.Fleet.Failovers == 0 {
		return fmt.Errorf("phase 4: killed a replica mid-run but the front never failed over")
	}
	fmt.Printf("phase 4: killed r3 mid-run — 0 requests lost, %d failovers, predictions still bit-identical\n", st.Fleet.Failovers)

	// Phase 5: planned removal. Only the dead replica's arc may move.
	ownedByDead := ringBefore.LoadCounts(khs)["r3"]
	if err := front.RemoveReplica("r3"); err != nil {
		return err
	}
	moved := fleet.Moved(ringBefore, front.Ring(), khs)
	if moved != ownedByDead {
		return fmt.Errorf("phase 5: removal moved %d keys, want exactly r3's %d", moved, ownedByDead)
	}
	fair := len(pairs) / 3
	bound := fair + fair*6/10
	if moved > bound {
		return fmt.Errorf("phase 5: removal moved %d keys, above the %d bound (fair %d)", moved, bound, fair)
	}
	postPreds, _, err := runRound(client, frontURL, pairs)
	if err != nil {
		return fmt.Errorf("phase 5: %w", err)
	}
	if err := samePreds(baseline, postPreds); err != nil {
		return fmt.Errorf("phase 5: predictions diverged after rebalance: %w", err)
	}
	fmt.Printf("phase 5: removed r3 — %d/%d keys moved (exactly its arc; bound %d), post-rebalance bit-identical\n", moved, len(pairs), bound)

	// Phase 6: rolling canary upgrade of r1. The canary boots from a
	// *different* snapshot of the same matcher (PickCanary), carrying
	// state saved from the incumbent's trained matcher, so the mirror
	// comparison must come back bit-identical.
	canaryHash, err := saveCanarySnapshot(cfg, procs[0])
	if err != nil {
		return err
	}
	canaryProc, err := bootFromSnapshot(cfg, "canary", canaryHash)
	if err != nil {
		return err
	}
	defer canaryProc.kill()
	if err := front.StartCanary("r1", canaryProc.url); err != nil {
		return err
	}
	if _, _, err := runRound(client, frontURL, pairs); err != nil {
		return fmt.Errorf("phase 6 mirror round: %w", err)
	}
	front.WaitMirrors() // mirrors are async; settle before reading the report
	rep := front.Canary()
	if rep == nil {
		return fmt.Errorf("phase 6: canary vanished during the mirror round")
	}
	if rep.Mismatched != 0 {
		return fmt.Errorf("phase 6: canary mismatched %d of %d mirrored pairs", rep.Mismatched, rep.Mirrored)
	}
	if !rep.Ready {
		return fmt.Errorf("phase 6: canary not ready after a full round: mirrored %d (min %d), errors %d",
			rep.Mirrored, rep.MinSample, rep.Errors)
	}
	oldURL, err := front.PromoteCanary()
	if err != nil {
		return err
	}
	if oldURL != byName["r1"].url {
		return fmt.Errorf("phase 6: promotion returned old URL %q, want %q", oldURL, byName["r1"].url)
	}
	byName["r1"].kill() // drain and retire the incumbent
	finalPreds, _, err := runRound(client, frontURL, pairs)
	if err != nil {
		return fmt.Errorf("phase 6 post-cutover: %w", err)
	}
	if err := samePreds(baseline, finalPreds); err != nil {
		return fmt.Errorf("phase 6: predictions diverged after cutover: %w", err)
	}
	fmt.Printf("phase 6: canary %.12s mirrored %d pairs bit-identically, promoted over r1 (%.12s), post-cutover bit-identical\n",
		canaryHash, rep.Mirrored, procs[0].hash)

	st = front.Stats(context.Background())
	fmt.Printf("fleet: %d requests ok, %d pairs, %d hedges (%d won), %d failovers, %d diverts\n",
		st.Fleet.RequestsOK, st.Fleet.Pairs, st.Fleet.Hedges, st.Fleet.HedgeWins, st.Fleet.Failovers, st.Fleet.Diverts)
	fmt.Println("FLEET SMOKE OK")
	return nil
}

const smokeBatch = 32

// smokeWorkload replays benchmark pairs — the same workload the serving
// loadgen uses, truncated to n.
func smokeWorkload(n int) ([]record.Pair, error) {
	d, err := datasets.Generate("ABT", eval.DatasetSeed)
	if err != nil {
		return nil, err
	}
	if n <= 0 || n > len(d.Pairs) {
		n = len(d.Pairs)
	}
	pairs := make([]record.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = d.Pairs[i].Pair
	}
	return pairs, nil
}

// keyHashes computes each pair's ring key hash exactly the way the
// front does: canonical pair-key bytes, then the ring mix.
func keyHashes(pairs []record.Pair) []uint64 {
	opts := serve.CanonicalKeyOptions(nil)
	khs := make([]uint64, len(pairs))
	var buf []byte
	for i, p := range pairs {
		buf = serve.AppendPairKey(buf[:0], p, opts)
		khs[i] = fleet.KeyHash(buf)
	}
	return khs
}

// batch slices one smokeBatch-sized window out of pairs.
func batch(pairs []record.Pair, start int) []record.Pair {
	end := start + smokeBatch
	if end > len(pairs) {
		end = len(pairs)
	}
	return pairs[start:end]
}

// runRound pushes the whole workload through url in batches over the
// binary wire protocol and returns the concatenated predictions.
func runRound(client *http.Client, url string, pairs []record.Pair) ([]bool, int, error) {
	preds := make([]bool, 0, len(pairs))
	batches := 0
	for start := 0; start < len(pairs); start += smokeBatch {
		got, err := postWire(client, url, batch(pairs, start))
		if err != nil {
			return nil, batches, err
		}
		preds = append(preds, got...)
		batches++
	}
	return preds, batches, nil
}

// postWire posts one wire-framed /match request and decodes the
// predictions.
func postWire(client *http.Client, base string, pairs []record.Pair) ([]bool, error) {
	status, reply, err := serve.PostWire(context.Background(), client, base, wire.AppendRequest(nil, pairs, 0))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/match: status %d", base, status)
	}
	var wr wire.Response
	if err := serve.ParseWireResponse(reply, &wr); err != nil {
		return nil, fmt.Errorf("%s/match: %w", base, err)
	}
	if len(wr.Preds) != len(pairs) {
		return nil, fmt.Errorf("%s/match: %d predictions for %d pairs", base, len(wr.Preds), len(pairs))
	}
	return wr.Preds, nil
}

// replicaLoads scrapes every replica's /stats and returns the pairs each
// has answered so far (scored plus cached), aligned with procs.
func replicaLoads(client *http.Client, procs []*spawned) ([]int64, error) {
	loads := make([]int64, len(procs))
	for i, p := range procs {
		st, err := serve.FetchStats(context.Background(), client, p.url)
		if err != nil {
			return nil, fmt.Errorf("%s /stats: %w", p.name, err)
		}
		loads[i] = st.PairsScored + st.PairsCached
	}
	return loads, nil
}

func samePreds(want, got []bool) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("prediction %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// listenFront serves the front router on an ephemeral loopback port.
func listenFront(front *fleet.Front) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: front.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// saveCanarySnapshot writes the incumbent's trained state under a
// second snapshot key (the seed field bumped), giving PickCanary a
// distinct, newer artifact whose state is bit-identical by
// construction — exactly what a rebuilt-but-equivalent release looks
// like. Returns the hash PickCanary selects.
func saveCanarySnapshot(cfg fleetConfig, incumbent *spawned) (string, error) {
	reg := obs.NewRegistry(obs.Label{Key: "replica", Value: "canary-store"})
	st, err := snap.Open(cfg.store, reg)
	if err != nil {
		return "", err
	}
	m, _, err := matchers.ByName(cfg.matcher)
	if err != nil {
		return "", err
	}
	snapper := m.(snap.Snapshotter)
	if _, err := st.LoadHash(incumbent.hash, snapper); err != nil {
		return "", fmt.Errorf("loading incumbent snapshot: %w", err)
	}
	key := incumbent.key
	key.Seed = cfg.seed + 1
	if _, err := st.Save(key, m.Name(), snapper); err != nil {
		return "", fmt.Errorf("saving canary snapshot: %w", err)
	}
	// Snapshot metadata records the matcher's display name, not the
	// registry key the CLI flag uses.
	art, err := st.PickCanary(m.Name(), incumbent.hash)
	if err != nil {
		return "", fmt.Errorf("PickCanary: %w", err)
	}
	if art.Hash == incumbent.hash {
		return "", fmt.Errorf("PickCanary returned the incumbent %.12s", art.Hash)
	}
	return art.Hash, nil
}

// bootFromSnapshot starts one replica restored from a specific artifact
// hash — the canary boot path.
func bootFromSnapshot(cfg fleetConfig, name, hash string) (*spawned, error) {
	m, _, err := matchers.ByName(cfg.matcher)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry(obs.Label{Key: "replica", Value: name})
	st, err := snap.Open(cfg.store, reg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := st.LoadHash(hash, m.(snap.Snapshotter)); err != nil {
		return nil, fmt.Errorf("%s: restoring %.12s: %w", name, hash, err)
	}
	srv, err := serve.New(m, serve.Config{
		MatcherName: cfg.matcher,
		Registry:    reg,
		Startup: &serve.StartupInfo{
			Warm: true, RestoreSeconds: time.Since(start).Seconds(), SnapshotHash: hash,
		},
	})
	if err != nil {
		return nil, err
	}
	url, stop, err := serve.Listen(srv)
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	return &spawned{name: name, url: url, srv: srv, stop: stop, warm: true, hash: hash}, nil
}
