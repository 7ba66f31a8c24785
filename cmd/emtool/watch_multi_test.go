package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

func TestWatchMultiAddrAggregates(t *testing.T) {
	healthy := fixture(t, okStats(), nil)
	st2 := okStats()
	st2.Matcher = "jaccard"
	st2.Requests = 500
	other := fixture(t, st2, nil)

	var out strings.Builder
	breached, err := watchMulti(watchConfig{
		Addrs: []string{healthy.URL, other.URL}, Interval: time.Millisecond,
		Count: 1, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if breached {
		t.Fatal("healthy fleet reported breached")
	}
	got := out.String()
	for _, want := range []string{"fleet of 2 replicas", "up 2/2", "requests 1500", healthy.URL, other.URL} {
		if !strings.Contains(got, want) {
			t.Fatalf("frame missing %q:\n%s", want, got)
		}
	}
}

// One breaching replica must flip the whole run to breached (exit 3 in
// main), even when the others are healthy.
func TestWatchMultiAddrBreachingReplica(t *testing.T) {
	healthy := fixture(t, okStats(), nil)
	bad := okStats()
	bad.SLOState, bad.SLOBreaches = "breach", 2
	breaching := fixture(t, bad, nil)

	var out strings.Builder
	breached, err := watchMulti(watchConfig{
		Addrs: []string{healthy.URL, breaching.URL}, Interval: time.Hour,
		Count: 100, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !breached {
		t.Fatal("breaching replica not detected")
	}
	// ExitOnBreach stops after the first frame.
	if n := strings.Count(out.String(), "fleet of 2 replicas"); n != 1 {
		t.Fatalf("got %d frames, want 1", n)
	}
}

// A dead replica gets a DOWN row; the fleet line reports up N-1/N and
// the watch keeps going.
func TestWatchMultiAddrDeadReplica(t *testing.T) {
	healthy := fixture(t, okStats(), nil)
	var out strings.Builder
	_, err := watchMulti(watchConfig{
		Addrs: []string{healthy.URL, "http://127.0.0.1:1"}, Interval: time.Millisecond,
		Count: 1, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "DOWN") || !strings.Contains(got, "up 1/2") {
		t.Fatalf("dead replica not rendered as DOWN:\n%s", got)
	}
}

// fleetFixture serves a canned fleet /stats body.
func fleetFixture(t *testing.T, st fleet.StatsResponse) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(st)
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

func fleetStats() fleet.StatsResponse {
	ok := okStats()
	ok.SchemaVersion = serve.StatsSchemaVersion
	ok.SLOState = "ok"
	return fleet.StatsResponse{
		SchemaVersion: fleet.FleetStatsSchemaVersion,
		Matcher:       "stringsim",
		UptimeSec:     30,
		Fleet: fleet.FleetAggregate{
			Replicas: 3, Healthy: 3, Requests: 900, Pairs: 4500,
			Hedges: 4, HedgeWins: 3, Failovers: 1, LatencyP99Us: 2100,
		},
		Replicas: []fleet.ReplicaStats{
			{Name: "r1", URL: "http://h:8081", Breaker: "closed", Sent: 300, Stats: &ok},
			{Name: "r2", URL: "http://h:8082", Breaker: "closed", Sent: 310, Stats: &ok},
			{Name: "r3", URL: "http://h:8083", Breaker: "open", Sent: 290, StatsErr: "connection refused"},
		},
	}
}

func TestWatchFleetRenders(t *testing.T) {
	ts := fleetFixture(t, fleetStats())
	var out strings.Builder
	breached, err := watchMulti(watchConfig{
		FleetURL: ts.URL, Interval: time.Millisecond, Count: 1, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if breached {
		t.Fatal("healthy fleet reported breached")
	}
	got := out.String()
	for _, want := range []string{
		"fleet:stringsim", "replicas 3/3 healthy", "hedges 4 (won 3)",
		"r1", "[CLOSED]", "r3", "[OPEN]", "connection refused",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("frame missing %q:\n%s", want, got)
		}
	}
}

// A replica whose embedded stats carry slo_state=breach flips the fleet
// watch to breached even though the router aggregate is fine.
func TestWatchFleetReplicaBreach(t *testing.T) {
	st := fleetStats()
	bad := okStats()
	bad.SLOState = "breach"
	st.Replicas[0].Stats = &bad
	ts := fleetFixture(t, st)
	var out strings.Builder
	breached, err := watchMulti(watchConfig{
		FleetURL: ts.URL, Interval: time.Hour, Count: 5, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !breached {
		t.Fatal("breaching replica inside fleet stats not detected")
	}
}

// serve.Stats schema-version drift must not silently zero fields: the
// fleet snapshot embeds whatever the replica served, version included.
func TestFleetStatsEmbedsSchemaVersion(t *testing.T) {
	st := fleetStats()
	if st.Replicas[0].Stats.SchemaVersion != serve.StatsSchemaVersion {
		t.Fatalf("fixture schema version %d, want %d",
			st.Replicas[0].Stats.SchemaVersion, serve.StatsSchemaVersion)
	}
}
