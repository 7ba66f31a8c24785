package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/record"
	"repro/internal/serve"
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
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	for i, p := range procs {
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

	front, err := fleet.New(cfg.front)
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
	victim := procs[2]
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
