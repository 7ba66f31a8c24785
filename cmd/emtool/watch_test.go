package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/slo"
)

// fixture serves canned /stats and /slo bodies; sloStatus <= 0 means the
// service has no objectives configured (404).
func fixture(t *testing.T, st serve.Stats, sr *serve.SLOResponse) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if sr == nil {
			http.Error(w, "no SLOs configured", http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(sr)
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

func okStats() serve.Stats {
	return serve.Stats{
		Matcher: "stringsim", UptimeSec: 10,
		Requests: 1000, RequestsOK: 990,
		PairsScored: 4000, PairsCached: 1000,
		LatencyP50Us: 1200, LatencyP95Us: 3200, LatencyP99Us: 4500,
		CacheHitRate: 0.2, TotalCostUSD: 0.0123,
	}
}

func TestWatchHealthyService(t *testing.T) {
	sr := &serve.SLOResponse{
		Matcher: "stringsim", State: slo.OK,
		Objectives: []slo.Status{{
			Name: "p99", Spec: "p99<=5ms", Kind: "latency", State: slo.OK,
			Limit: 5000, ValueLong: 4500, ValueShort: 4200,
			BurnLong: 0.9, BurnShort: 0.84,
		}},
	}
	ts := fixture(t, okStats(), sr)
	var out strings.Builder
	worst, err := watch(watchConfig{
		URL: ts.URL, Interval: time.Millisecond, Count: 2, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if worst != slo.OK {
		t.Fatalf("worst = %v, want OK", worst)
	}
	for _, want := range []string{"stringsim", "[OK]", "req/s", "p99<=5ms", "cost $0.0123"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("frame missing %q:\n%s", want, out.String())
		}
	}
	// Two polls, two frames in plain mode.
	if got := strings.Count(out.String(), "emwatch  stringsim"); got != 2 {
		t.Fatalf("got %d frames, want 2", got)
	}
}

// A breached service stops the watch immediately (even with polls left)
// and reports Breach — which main turns into exit code 3.
func TestWatchBreachStopsEarly(t *testing.T) {
	st := okStats()
	st.ShedSLO, st.SLOState, st.SLOBreaches = 120, "breach", 1
	sr := &serve.SLOResponse{
		Matcher: "stringsim", State: slo.Breach, Breaches: 1,
		Objectives: []slo.Status{{
			Name: "shed", Spec: "shed<=1%", Kind: "ratio", State: slo.Breach,
			Limit: 0.01, ValueLong: 0.12, ValueShort: 0.3,
			BurnLong: 12, BurnShort: 30,
		}},
	}
	ts := fixture(t, st, sr)
	var out strings.Builder
	worst, err := watch(watchConfig{
		URL: ts.URL, Interval: time.Hour, Count: 100, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if worst != slo.Breach {
		t.Fatalf("worst = %v, want Breach", worst)
	}
	if got := strings.Count(out.String(), "emwatch  stringsim"); got != 1 {
		t.Fatalf("breach should stop after 1 frame, got %d", got)
	}
	if !strings.Contains(out.String(), "BREACH") {
		t.Fatalf("frame does not show the breach:\n%s", out.String())
	}
}

// Without objectives the dashboard still works as a stats monitor.
func TestWatchNoSLOConfigured(t *testing.T) {
	ts := fixture(t, okStats(), nil)
	var out strings.Builder
	worst, err := watch(watchConfig{
		URL: ts.URL, Interval: time.Millisecond, Count: 1, Plain: true, ExitOnBreach: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if worst != slo.OK {
		t.Fatalf("worst = %v, want OK", worst)
	}
	if !strings.Contains(out.String(), "none configured") {
		t.Fatalf("frame missing the no-SLO notice:\n%s", out.String())
	}
}

// Throughput is delta-based between polls, falling back to lifetime
// averages on the first frame.
func TestRates(t *testing.T) {
	a := sample{at: time.Unix(100, 0), stats: serve.Stats{Requests: 1000, PairsScored: 4000, PairsCached: 1000, UptimeSec: 10}}
	b := sample{at: time.Unix(102, 0), stats: serve.Stats{Requests: 1400, PairsScored: 5000, PairsCached: 1200, UptimeSec: 12}}
	if qps, pps := rates(nil, a); qps != 100 || pps != 500 {
		t.Fatalf("first frame rates = %v, %v; want lifetime 100, 500", qps, pps)
	}
	if qps, pps := rates(&a, b); qps != 200 || pps != 600 {
		t.Fatalf("delta rates = %v, %v; want 200, 600", qps, pps)
	}
	// A stalled clock must not divide by zero.
	if qps, pps := rates(&a, a); qps != 0 || pps != 0 {
		t.Fatalf("zero-dt rates = %v, %v", qps, pps)
	}
}

// A dead service is an error, not a hang or a zero exit.
func TestWatchUnreachable(t *testing.T) {
	_, err := watch(watchConfig{
		URL: "http://127.0.0.1:1", Interval: time.Millisecond, Count: 1, Plain: true,
	}, &strings.Builder{})
	if err == nil {
		t.Fatal("unreachable service did not error")
	}
}
