package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/wire"
)

// runFleetSmoke is the fleet stage of make smoke (emserve -smoke
// -replicas 3). Every phase asserts; the first violated invariant aborts
// with a non-nil error (exit 1 in main).
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
//     Replicas run the flags' serve.Config, cache included: a repeat
//     round must hit the cache of every replica that answered pairs.
//  4. Crash: one replica is killed mid-run; every request must still be
//     answered correctly (failover), nothing permanently lost.
//  5. Rebalance: removing the dead replica moves only its arc — the
//     moved-key count equals its prior ownership and stays near fair.
//  6. Canary: a canary boots from a different snapshot (PickCanary),
//     mirrored traffic must compare bit-identical, promotion cuts the
//     ring member over to the canary URL, the old process drains, and
//     the workload still answers correctly after cutover.
func runFleetSmoke(cfg config) error {
	tmp, err := os.MkdirTemp("", "emserve-fleet-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg.ready.Store = tmp
	if cfg.front.ProbeInterval <= 0 {
		cfg.front.ProbeInterval = 200 * time.Millisecond
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
		if i == 0 && p.ready.Warm {
			return fmt.Errorf("phase 1: %s restored warm from an empty store", p.name)
		}
		if i > 0 && !p.ready.Warm {
			return fmt.Errorf("phase 1: %s cold-trained; want warm restore from %s's snapshot", p.name, procs[0].name)
		}
		if p.ready.Hash != procs[0].ready.Hash {
			return fmt.Errorf("phase 1: %s booted from snapshot %.12s, want %.12s", p.name, p.ready.Hash, procs[0].ready.Hash)
		}
	}
	fmt.Printf("phase 1: %s cold-trained and saved %.12s; r2, r3 warm-restored\n", procs[0].name, procs[0].ready.Hash)

	fc := cfg.front
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
	frontURL, stopFront, err := serve.Listen(front.Handler())
	if err != nil {
		return err
	}
	defer stopFront()

	pairs, err := replayPairs(cfg) // the workload the serving loadgen uses
	if err != nil {
		return err
	}
	if len(pairs) > smokePairs {
		pairs = pairs[:smokePairs]
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
	if _, _, err := runRound(client, frontURL, pairs); err != nil {
		return fmt.Errorf("phase 3 repeat round: %w", err)
	}
	for i, p := range procs {
		st, err := serve.FetchStats(context.Background(), client, p.url)
		if err != nil {
			return fmt.Errorf("phase 3: %s /stats: %w", p.name, err)
		}
		if after[i] > before[i] && st.PairsCached == 0 {
			return fmt.Errorf("phase 3: %s answered %d pairs in the first round and served none of the repeat round from its prediction cache", p.name, after[i]-before[i])
		}
	}
	fmt.Println("phase 3: repeat round served from the prediction cache of every replica that owned pairs")

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
	canaryHash, err := saveCanarySnapshot(cfg, procs[0].ready)
	if err != nil {
		return err
	}
	canarySpec := cfg.ready
	canarySpec.Hash = canaryHash
	canaryProc, err := spawnReplica("canary", cfg, canarySpec)
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
		canaryHash, rep.Mirrored, procs[0].ready.Hash)

	st = front.Stats(context.Background())
	fmt.Printf("fleet: %d requests ok, %d pairs, %d hedges (%d won), %d failovers, %d diverts\n",
		st.Fleet.RequestsOK, st.Fleet.Pairs, st.Fleet.Hedges, st.Fleet.HedgeWins, st.Fleet.Failovers, st.Fleet.Diverts)
	fmt.Println("FLEET SMOKE OK")
	return nil
}

// The fleet smoke's workload size and wire batch size.
const (
	smokePairs = 512
	smokeBatch = 32
)

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

// saveCanarySnapshot writes the incumbent's trained state under a
// second snapshot key (the seed field bumped), giving PickCanary a
// distinct, newer artifact whose state is bit-identical by
// construction — exactly what a rebuilt-but-equivalent release looks
// like. Returns the hash PickCanary selects.
func saveCanarySnapshot(cfg config, incumbent *eval.Ready) (string, error) {
	st, err := snap.Open(cfg.ready.Store, nil)
	if err != nil {
		return "", err
	}
	m, _, err := matchers.ByName(cfg.ready.Matcher)
	if err != nil {
		return "", err
	}
	snapper := m.(snap.Snapshotter) // the incumbent was saved, so the matcher snapshots
	if _, err := st.LoadHash(incumbent.Hash, snapper); err != nil {
		return "", fmt.Errorf("loading incumbent snapshot: %w", err)
	}
	key := incumbent.Key
	key.Seed = cfg.ready.Seed + 1
	if _, err := st.Save(key, m.Name(), snapper); err != nil {
		return "", fmt.Errorf("saving canary snapshot: %w", err)
	}
	// Snapshot metadata records the matcher's display name, not the
	// registry key the CLI flag uses.
	art, err := st.PickCanary(m.Name(), incumbent.Hash)
	if err != nil {
		return "", fmt.Errorf("PickCanary: %w", err)
	}
	if art.Hash == incumbent.Hash {
		return "", fmt.Errorf("PickCanary returned the incumbent %.12s", art.Hash)
	}
	return art.Hash, nil
}
