package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve"
)

// FleetStatsSchemaVersion versions the front router's /stats schema,
// independently of the replica schema it embeds (each embedded replica
// snapshot carries its own serve.StatsSchemaVersion).
const FleetStatsSchemaVersion = 1

// ReplicaStats is one replica's row in the fleet /stats snapshot: the
// front's view (breaker, routing counters) plus the replica's own live
// /stats scrape when reachable.
type ReplicaStats struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Breaker   string `json:"breaker"` // closed | open | half-open
	Penalized bool   `json:"penalized"`

	Sent       int64 `json:"sent"`
	Failures   int64 `json:"failures"`
	Sheds      int64 `json:"sheds"`
	HedgeWins  int64 `json:"hedge_wins"`
	Probes     int64 `json:"probes"`
	ProbeFails int64 `json:"probe_fails"`
	Ejections  int64 `json:"ejections"`

	// Stats is the replica's own /stats snapshot; nil with StatsErr set
	// when the scrape failed (a dead replica still gets a row).
	Stats    *serve.Stats `json:"stats,omitempty"`
	StatsErr string       `json:"stats_err,omitempty"`
}

// FleetAggregate is the whole-fleet summary line.
type FleetAggregate struct {
	Replicas int `json:"replicas"`
	Healthy  int `json:"healthy"`

	Requests   int64 `json:"requests"`
	RequestsOK int64 `json:"requests_ok"`
	Errors     int64 `json:"errors"`
	Pairs      int64 `json:"pairs"`
	Fanouts    int64 `json:"fanouts"`
	Hedges     int64 `json:"hedges"`
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	Diverts    int64 `json:"diverts"`
	Sheds      int64 `json:"sheds"`

	LatencyP50Us float64 `json:"latency_p50_us"`
	LatencyP95Us float64 `json:"latency_p95_us"`
	LatencyP99Us float64 `json:"latency_p99_us"`

	// Sums over the replicas that answered their scrape.
	PairsScored  int64   `json:"pairs_scored"`
	PairsCached  int64   `json:"pairs_cached"`
	TotalCostUSD float64 `json:"total_cost_usd"`

	SLOState    string `json:"slo_state,omitempty"`
	SLOBreaches int64  `json:"slo_breaches"`
}

// StatsResponse is the fleet /stats snapshot.
type StatsResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Matcher       string         `json:"matcher"`
	UptimeSec     float64        `json:"uptime_sec"`
	Fleet         FleetAggregate `json:"fleet"`
	Replicas      []ReplicaStats `json:"replicas"`
	Canary        *CanaryReport  `json:"canary,omitempty"`
}

// Stats builds the fleet snapshot, scraping every replica's /stats
// through the transport. Rows are sorted by replica name so the
// snapshot is stable for dashboards and tests.
func (f *Front) Stats(ctx context.Context) StatsResponse {
	reps := f.place.Load().reps // in name order, as the ring sorts its members

	m := &f.metrics
	out := StatsResponse{
		SchemaVersion: FleetStatsSchemaVersion,
		Matcher:       f.cfg.MatcherName,
		UptimeSec:     time.Since(f.started).Seconds(),
		Canary:        f.Canary(),
	}
	agg := &out.Fleet
	agg.Replicas = len(reps)
	agg.Requests = m.requests.Load()
	agg.RequestsOK = m.requestsOK.Load()
	agg.Errors = m.errors.Load()
	agg.Pairs = m.pairs.Load()
	agg.Fanouts = m.fanouts.Load()
	agg.Hedges = m.hedges.Load()
	agg.HedgeWins = m.hedgeWins.Load()
	agg.Failovers = m.failovers.Load()
	agg.Diverts = m.diverts.Load()
	agg.LatencyP50Us = m.latency.Quantile(0.50)
	agg.LatencyP95Us = m.latency.Quantile(0.95)
	agg.LatencyP99Us = m.latency.Quantile(0.99)
	if f.sloEngine != nil {
		// Lowercased to match serve.Stats.SLOState, so watchers compare
		// replica and fleet states with one string.
		agg.SLOState = strings.ToLower(f.sloEngine.Worst().String())
		agg.SLOBreaches = m.sloBreaches.Load()
	}

	now := f.clock.Now()
	for _, r := range reps {
		row := ReplicaStats{
			Name:       r.name,
			URL:        r.URL(),
			Breaker:    r.breaker.State().String(),
			Penalized:  r.penalizedAt(now),
			Sent:       r.sent.Load(),
			Failures:   r.failures.Load(),
			Sheds:      r.sheds.Load(),
			HedgeWins:  r.hedgesWon.Load(),
			Probes:     r.probes.Load(),
			ProbeFails: r.probeFails.Load(),
			Ejections:  r.ejections.Load(),
		}
		agg.Sheds += row.Sheds
		if row.Breaker != "open" {
			agg.Healthy++
		}
		if st, err := f.transport.Stats(ctx, row.URL); err != nil {
			row.StatsErr = err.Error()
		} else {
			row.Stats = &st
			agg.PairsScored += st.PairsScored
			agg.PairsCached += st.PairsCached
			agg.TotalCostUSD += st.TotalCostUSD
		}
		out.Replicas = append(out.Replicas, row)
	}
	return out
}

// Handler returns the front router's HTTP surface, shaped like a single
// replica's so clients need no fleet-specific code: POST /match is the
// replicas' own edge (serve.MatchEdge) over the front's Submit, beside
// GET /healthz, GET /stats (fleet schema), GET /slo (404 without
// objectives) and GET /metrics.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/match", &serve.MatchEdge{
		Matcher:   f.cfg.MatcherName,
		MaxPairs:  f.cfg.MaxPairsPerRequest,
		Submit:    f.Submit,
		ServeWire: f.serveWire,
	})
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/stats", f.handleStats)
	mux.Handle("/slo", serve.SLOHandler(f.cfg.MatcherName, f.sloEngine, f.metrics.sloBreaches.Load))
	mux.Handle("/metrics", f.reg.Handler())
	return mux
}

// handleHealthz: the front is healthy while at least one replica has a
// non-open breaker — a fleet that can still route somewhere is up; a
// fleet with every replica ejected is not.
func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ring := f.Ring()
	healthy := f.healthyCount()
	body := map[string]any{
		"status":     "ok",
		"matcher":    f.cfg.MatcherName,
		"replicas":   ring.Len(),
		"healthy":    healthy,
		"uptime_sec": time.Since(f.started).Seconds(),
	}
	status := http.StatusOK
	if ring.Len() == 0 || healthy == 0 {
		body["status"] = "unroutable"
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, body)
}

func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, f.Stats(r.Context()))
}

// FetchFleetStats GETs a front router's /stats — the watcher-side
// counterpart of serve.FetchStats for fleet endpoints.
func FetchFleetStats(client *http.Client, base string) (StatsResponse, error) {
	var st StatsResponse
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s/stats: status %d", base, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if st.SchemaVersion > FleetStatsSchemaVersion {
		return st, fmt.Errorf("fleet: /stats schema version %d, this client understands <= %d",
			st.SchemaVersion, FleetStatsSchemaVersion)
	}
	return st, nil
}
