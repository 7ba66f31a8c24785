package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/slo"
)

// Fleet-aware watching: -addr (repeatable) polls several emserve
// replicas side by side and synthesizes the fleet-aggregate line
// client-side; -fleet polls a front router's /stats, which already
// embeds every replica's scrape plus the router's own view (breakers,
// hedges, failovers, canary). Both render one row per replica and exit
// non-zero when ANY replica breaches its SLO — a fleet is only as
// healthy as its worst member.

// watchMulti drives either fleet mode or multi-addr mode. It reports
// whether any replica (or the fleet aggregate) was in BREACH.
func watchMulti(cfg watchConfig, out io.Writer) (breached bool, err error) {
	client := &http.Client{Timeout: 10 * time.Second}
	prev := make(map[string]*sample, len(cfg.Addrs))
	var prevFleet *fleet.StatsResponse
	var prevAt time.Time
	for i := 0; cfg.Count <= 0 || i < cfg.Count; i++ {
		if i > 0 {
			time.Sleep(cfg.Interval)
		}
		if !cfg.Plain {
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		var hit bool
		if cfg.FleetURL != "" {
			st, ferr := fleet.FetchFleetStats(client, cfg.FleetURL)
			if ferr != nil {
				return breached, ferr
			}
			now := time.Now()
			hit = renderFleet(out, prevFleet, prevAt, st, now)
			prevFleet, prevAt = &st, now
		} else {
			hit, err = pollAddrs(client, cfg.Addrs, prev, out)
			if err != nil {
				return breached, err
			}
		}
		if hit {
			breached = true
			if cfg.ExitOnBreach {
				return breached, nil
			}
		}
	}
	return breached, nil
}

// pollAddrs scrapes every -addr target and renders one row each plus a
// synthesized aggregate. An unreachable replica gets an error row and
// counts as down, not as a poll failure — the rest of the fleet is
// still worth watching.
func pollAddrs(client *http.Client, addrs []string, prev map[string]*sample, out io.Writer) (breached bool, err error) {
	fmt.Fprintf(out, "emwatch  fleet of %d replicas\n", len(addrs))
	var agg struct {
		requests, pairsScored, pairsCached, shed, breaches int64
		cost                                               float64
		up, total                                          int
		worstP99                                           float64
	}
	agg.total = len(addrs)
	for _, addr := range addrs {
		cur, perr := pollOnce(client, addr)
		if perr != nil {
			fmt.Fprintf(out, "  %-28s DOWN: %v\n", addr, perr)
			prev[addr] = nil
			continue
		}
		renderRow(out, addr, prev[addr], cur)
		if replicaBreached(cur.stats, cur.slo) {
			breached = true
		}
		agg.up++
		agg.requests += cur.stats.Requests
		agg.pairsScored += cur.stats.PairsScored
		agg.pairsCached += cur.stats.PairsCached
		agg.shed += cur.stats.ShedQueueFull + cur.stats.ShedDraining + cur.stats.ShedSLO
		agg.breaches += cur.stats.SLOBreaches
		agg.cost += cur.stats.TotalCostUSD
		if cur.stats.LatencyP99Us > agg.worstP99 {
			agg.worstP99 = cur.stats.LatencyP99Us
		}
		c := cur
		prev[addr] = &c
	}
	fmt.Fprintf(out, "  fleet   up %d/%d  requests %d  pairs %d  shed %d  worst-p99 %s  breaches %d  cost $%.4f\n",
		agg.up, agg.total, agg.requests, agg.pairsScored+agg.pairsCached, agg.shed,
		fmtUS(agg.worstP99), agg.breaches, agg.cost)
	if agg.up == 0 {
		return breached, fmt.Errorf("all %d replicas unreachable", agg.total)
	}
	return breached, nil
}

// renderRow draws one replica's line in the multi-addr dashboard.
func renderRow(out io.Writer, name string, prev *sample, cur sample) {
	st := cur.stats
	state := "no slo"
	if cur.slo != nil {
		state = cur.slo.State.String()
	} else if st.SLOState != "" {
		state = strings.ToUpper(st.SLOState)
	}
	qps, pps := rates(prev, cur)
	fmt.Fprintf(out, "  %-28s [%s]  %8.1f req/s %9.1f pairs/s  p99 %s  cache %.1f%%  cost $%.4f\n",
		name, state, qps, pps, fmtUS(st.LatencyP99Us), 100*st.CacheHitRate, st.TotalCostUSD)
}

// replicaBreached: a replica is breaching when its /slo says so, or —
// when only /stats is available (fleet-embedded scrape) — when the
// stats snapshot carries slo_state=breach.
func replicaBreached(st serve.Stats, sr *serve.SLOResponse) bool {
	if sr != nil {
		return sr.State == slo.Breach
	}
	return st.SLOState == "breach"
}

// renderFleet draws the front-router dashboard: the router's aggregate,
// a row per replica (from the embedded scrapes), and the canary line
// when an upgrade is in flight. Returns whether anything is breaching.
func renderFleet(out io.Writer, prev *fleet.StatsResponse, prevAt time.Time, st fleet.StatsResponse, now time.Time) (breached bool) {
	agg := st.Fleet
	state := agg.SLOState
	if state == "" {
		state = "no slo"
	}
	fmt.Fprintf(out, "emwatch  fleet:%s  up %.1fs  [%s]  replicas %d/%d healthy\n",
		st.Matcher, st.UptimeSec, strings.ToUpper(state), agg.Healthy, agg.Replicas)

	qps := float64(0)
	if prev != nil {
		if dt := now.Sub(prevAt).Seconds(); dt > 0 {
			qps = float64(agg.Requests-prev.Fleet.Requests) / dt
		}
	} else if st.UptimeSec > 0 {
		qps = float64(agg.Requests) / st.UptimeSec
	}
	fmt.Fprintf(out, "  router  %8.1f req/s  pairs %d  p99 %s  hedges %d (won %d)  failovers %d  diverts %d  errors %d\n",
		qps, agg.Pairs, fmtUS(agg.LatencyP99Us), agg.Hedges, agg.HedgeWins, agg.Failovers, agg.Diverts, agg.Errors)
	if agg.SLOState == "breach" {
		breached = true
	}

	for _, r := range st.Replicas {
		state := strings.ToUpper(r.Breaker)
		detail := fmt.Sprintf("sent %d  fail %d  shed %d  hedge-wins %d", r.Sent, r.Failures, r.Sheds, r.HedgeWins)
		if r.Stats != nil {
			sloState := r.Stats.SLOState
			if sloState == "" {
				sloState = "no slo"
			}
			detail += fmt.Sprintf("  p99 %s  cache %.1f%%  [%s]",
				fmtUS(r.Stats.LatencyP99Us), 100*r.Stats.CacheHitRate, strings.ToUpper(sloState))
			if replicaBreached(*r.Stats, nil) {
				breached = true
			}
		} else {
			detail += "  stats: " + r.StatsErr
		}
		if r.Penalized {
			state += " penalized"
		}
		fmt.Fprintf(out, "  %-8s [%s]  %s\n", r.Name, state, detail)
	}
	if c := st.Canary; c != nil {
		verdict := "sampling"
		if c.Ready {
			verdict = "READY"
		} else if c.Mismatched > 0 {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(out, "  canary  %s -> %s  mirrored %d/%d  matched %d  mismatched %d  errors %d  [%s]\n",
			c.Target, c.URL, c.Mirrored, c.MinSample, c.Matched, c.Mismatched, c.Errors, verdict)
	}
	return breached
}
