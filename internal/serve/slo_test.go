package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flight"
	"repro/internal/record"
	"repro/internal/slo"
)

func sloSpecs(t *testing.T, s string) []slo.Spec {
	t.Helper()
	specs, err := slo.ParseSpecs(s)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func sloPair(l, r string) record.Pair {
	return record.Pair{
		Left:  record.Record{Values: []string{l}},
		Right: record.Record{Values: []string{r}},
	}
}

// The full breach loop on a virtual clock: clean traffic stays OK; a
// scripted shed storm breaches the shed objective; the breach trips the
// admission guard (Submit starts failing with ErrSLOShed), dumps flight
// evidence, and surfaces on /slo; quiet windows recover to OK and lift
// the guard. Everything is driven by manual ticks — no sleeps, no real
// traffic races.
func TestServeSLOBreachGuardsAdmission(t *testing.T) {
	vc := &clock.Virtual{}
	rec := flight.New(256)
	dir := t.TempDir()
	dump := flight.NewDumper(rec, dir, time.Nanosecond)
	var transitions []slo.Transition
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName:        "stringsim",
		Workers:            1,
		CacheCapacity:      64,
		SLOSpecs:           sloSpecs(t, "shed<=10%@8s/2s"),
		SLOClock:           vc,
		SLOResolution:      time.Second,
		SLOTick:            -1, // manual ticks
		BreachShedPermille: 1000,
		Flight:             rec,
		FlightDump:         dump,
		OnSLOTransition:    func(tr slo.Transition) { transitions = append(transitions, tr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if srv.SLO() == nil {
		t.Fatal("no SLO engine built")
	}

	// Real traffic first, so the ring holds evidence when the dump fires.
	if _, err := srv.Submit(context.Background(), []record.Pair{sloPair("alpha one", "alpha one")}); err != nil {
		t.Fatal(err)
	}
	tick := func() {
		vc.Sleep(time.Second)
		srv.TickSLO()
	}
	tick() // baseline sample

	// Clean windows: OK.
	for i := 0; i < 3; i++ {
		srv.metrics.requests.Add(100)
		tick()
	}
	if w := srv.SLO().Worst(); w != slo.OK {
		t.Fatalf("clean traffic: worst = %v, want OK", w)
	}

	// Shed storm: 50% of requests rejected, both windows burn hot.
	for i := 0; i < 6 && srv.SLO().Worst() != slo.Breach; i++ {
		srv.metrics.requests.Add(100)
		srv.metrics.shedQueueFull.Add(50)
		tick()
	}
	if w := srv.SLO().Worst(); w != slo.Breach {
		t.Fatalf("shed storm never breached: worst = %v", w)
	}
	if n := srv.metrics.sloBreaches.Load(); n == 0 {
		t.Fatal("breach counter not incremented")
	}

	// The guard is up: new cache-miss traffic sheds with ErrSLOShed (429
	// semantics), and the shed is flight-recorded.
	if _, err := srv.Submit(context.Background(), []record.Pair{sloPair("beta two", "gamma three")}); !errors.Is(err, ErrSLOShed) {
		t.Fatalf("breached Submit err = %v, want ErrSLOShed", err)
	}
	if srv.metrics.shedSLO.Load() == 0 {
		t.Fatal("shedSLO counter not incremented")
	}

	// Breach evidence: the dumper wrote a validating JSONL file.
	paths := dump.Paths()
	if len(paths) == 0 {
		t.Fatal("breach produced no flight dump")
	}
	if !strings.Contains(paths[0], "breach-shed") {
		t.Fatalf("dump name %q does not carry the breach reason", paths[0])
	}
	f, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	n, err := flight.Validate(f)
	f.Close()
	if err != nil || n == 0 {
		t.Fatalf("breach dump invalid: %d records, %v", n, err)
	}

	// /slo reports the breach.
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	var sr SLOResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.State != slo.Breach || len(sr.Objectives) == 0 || sr.Breaches == 0 {
		t.Fatalf("/slo = %+v, want breach with objectives", sr)
	}
	if st := srv.Stats(); st.SLOState != "breach" || st.SLOBreaches == 0 || st.ShedSLO == 0 {
		t.Fatalf("Stats SLO fields = %q/%d/%d", st.SLOState, st.SLOBreaches, st.ShedSLO)
	}

	// Recovery: quiet windows drain both burns; the guard lifts.
	for i := 0; i < 12 && srv.SLO().Worst() != slo.OK; i++ {
		tick()
	}
	if w := srv.SLO().Worst(); w != slo.OK {
		t.Fatalf("never recovered: worst = %v", w)
	}
	if _, err := srv.Submit(context.Background(), []record.Pair{sloPair("delta four", "delta four")}); err != nil {
		t.Fatalf("recovered Submit err = %v", err)
	}
	if len(transitions) < 2 {
		t.Fatalf("user transition callback saw %d transitions", len(transitions))
	}
}

// Flight records cover every request outcome: a scored miss, a pure
// cache hit sharing the miss's key hash, and a drain-time shed.
func TestServeFlightRecordsOutcomes(t *testing.T) {
	rec := flight.New(64)
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName:   "stringsim",
		Workers:       1,
		CacheCapacity: 64,
		Flight:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := []record.Pair{sloPair("tokyo tower", "tokyo tower")}
	if _, err := srv.Submit(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	if _, err := srv.Submit(context.Background(), []record.Pair{sloPair("osaka", "kyoto")}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining Submit err = %v", err)
	}

	recs := rec.Snapshot(nil)
	if len(recs) != 3 {
		t.Fatalf("got %d flight records, want 3: %+v", len(recs), recs)
	}
	byCode := map[flight.Code]flight.Record{}
	for _, r := range recs {
		byCode[r.Code] = r
	}
	scored, okS := byCode[flight.CodeScored]
	hit, okH := byCode[flight.CodeCacheHit]
	shed, okD := byCode[flight.CodeShedDrain]
	if !okS || !okH || !okD {
		t.Fatalf("missing outcome codes in %+v", recs)
	}
	if scored.Key == 0 || scored.Key != hit.Key {
		t.Fatalf("scored key %016x != cache-hit key %016x (same pair)", scored.Key, hit.Key)
	}
	if scored.Pairs != 1 || scored.Tier != -1 {
		t.Fatalf("scored record = %+v", scored)
	}
	if shed.Key == scored.Key {
		t.Fatal("distinct pair hashed to the scored key")
	}
	// JSONL write+validate round trip over live records.
	var sb strings.Builder
	n, err := rec.WriteJSONL(&sb)
	if err != nil || n != 3 {
		t.Fatalf("WriteJSONL = %d, %v", n, err)
	}
	if n, err := flight.Validate(strings.NewReader(sb.String())); err != nil || n != 3 {
		t.Fatalf("Validate = %d, %v", n, err)
	}
}

// The wire protocol logs the same flight outcomes as JSON — including
// the all-hit fast path — with matching key hashes across protocols.
func TestServeFlightWireParity(t *testing.T) {
	rec := flight.New(64)
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName:   "stringsim",
		Workers:       1,
		CacheCapacity: 64,
		Flight:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	pairs := []record.Pair{sloPair("wire pair", "wire pair")}
	// JSON submit (miss), then the same pair over the wire (hit).
	if _, err := srv.Submit(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	body := wireChunks(pairs, 1, 0)[0]
	status, _ := srv.ServeWire(context.Background(), body, nil)
	if status != 200 {
		t.Fatalf("wire status %d", status)
	}
	recs := rec.Snapshot(nil)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Key != recs[1].Key {
		t.Fatalf("wire key %016x != json key %016x for the same pair", recs[1].Key, recs[0].Key)
	}
	if recs[1].Code != flight.CodeCacheHit {
		t.Fatalf("wire all-hit logged %v", recs[1].Code)
	}
}

// Latency SLOs bind the real request histogram: /slo 404s without
// objectives, and misconfigured specs fail construction loudly.
func TestServeSLOConfigErrors(t *testing.T) {
	srv, err := New(trained(t, "stringsim"), Config{MatcherName: "stringsim", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 404 {
		t.Fatalf("/slo without SLOs = %d, want 404", rr.Code)
	}
	if st := srv.Stats(); st.SLOState != "" {
		t.Fatalf("Stats.SLOState = %q without SLOs", st.SLOState)
	}

	// F1 floors are a configuration error on the serving path.
	if _, err := New(trained(t, "stringsim"), Config{
		MatcherName: "stringsim", Workers: 1,
		SLOSpecs: sloSpecs(t, "f1>=0.7"), SLOTick: -1,
	}); err == nil {
		t.Fatal("f1 floor accepted by serve")
	}
}

// The background tick loop runs and stops cleanly with real clocks.
func TestServeSLOBackgroundLoop(t *testing.T) {
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName: "stringsim", Workers: 1,
		SLOSpecs: sloSpecs(t, "p99<=1s@2s/1s"),
		SLOTick:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.SLO().Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.SLO().Ticks() == 0 {
		t.Fatal("background loop never ticked")
	}
	srv.Shutdown() // must not hang on the loop
}
