package route

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/flight"
	"repro/internal/slo"
)

func routeSpec(t *testing.T, s string) slo.Spec {
	t.Helper()
	sp, err := slo.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// BindSLOs expands an error ceiling into one objective per tier, so a
// single failing backend breaches its own budget while the healthy
// tier stays OK.
func TestRouterBindSLOsPerTierError(t *testing.T) {
	vc := &clock.Virtual{}
	bad := &stubBackend{name: "gpt-4", always: backend.ErrOverloaded}
	good := &stubBackend{name: "stringsim", match: true, conf: 0.9}
	r := newTestRouter(t, Config{Clock: vc, Retry: RetryConfig{MaxAttempts: 1}}, bad, good)

	e := slo.NewEngine(slo.Config{Clock: vc, Resolution: time.Second})
	if err := r.BindSLOs(e, []slo.Spec{routeSpec(t, "error<=10%@8s/2s")}); err != nil {
		t.Fatal(err)
	}
	if err := r.BindSLOs(e, []slo.Spec{routeSpec(t, "f1>=0.5")}); err == nil {
		t.Fatal("BindSLOs accepted an f1 floor")
	}
	if got := len(e.Snapshot()); got != 2 {
		t.Fatalf("objectives = %d, want one per tier", got)
	}
	e.Tick() // baseline

	task := beerTask(t, 8)
	r.RoutePairs(task, nil)
	vc.Sleep(time.Second)
	var badSt, goodSt slo.Status
	for i := 0; i < 10; i++ {
		r.RoutePairs(task, nil)
		vc.Sleep(time.Second)
		sts := e.Tick()
		for _, st := range sts {
			switch st.Name {
			case "error_gpt_4":
				badSt = st
			case "error_stringsim":
				goodSt = st
			default:
				t.Fatalf("unexpected objective %q", st.Name)
			}
		}
		if badSt.State == slo.Breach {
			break
		}
	}
	if badSt.State != slo.Breach {
		t.Fatalf("failing tier never breached: %+v", badSt)
	}
	if goodSt.State != slo.OK {
		t.Fatalf("healthy tier not OK: %+v", goodSt)
	}
}

// Latency and cost specs bind the router's own instruments.
func TestRouterBindSLOsLatencyAndCost(t *testing.T) {
	vc := &clock.Virtual{}
	slow := &stubBackend{name: "gpt-4", rate: 30, match: true, conf: 0.9, lat: 50 * time.Millisecond}
	r := newTestRouter(t, Config{Clock: vc}, slow)
	e := slo.NewEngine(slo.Config{Clock: vc, Resolution: time.Second})
	if err := r.BindSLOs(e, []slo.Spec{
		routeSpec(t, "p99<=1ms@8s/2s"),
		routeSpec(t, "cost<=0.0001@8s/2s"),
	}); err != nil {
		t.Fatal(err)
	}
	e.Tick()
	task := beerTask(t, 8)
	for i := 0; i < 6; i++ {
		r.RoutePairs(task, nil)
		vc.Sleep(time.Second)
		e.Tick()
	}
	for _, st := range e.Snapshot() {
		if st.State != slo.Breach {
			t.Fatalf("%s not breached by a slow expensive tier: %+v", st.Name, st)
		}
	}
}

// Routed flight records are stamped on the router's clock: two
// identical virtual-clock runs produce byte-identical snapshots, and
// degraded pairs carry their own code.
func TestRouterFlightDeterministicReplay(t *testing.T) {
	run := func() []flight.Record {
		vc := &clock.Virtual{}
		rec := flight.New(64)
		flaky := &stubBackend{name: "gpt-4", rate: 30, always: backend.ErrOverloaded, lat: time.Millisecond}
		r := newTestRouter(t, Config{Clock: vc, Flight: rec, Retry: RetryConfig{MaxAttempts: 2}}, flaky)
		r.RoutePairs(beerTask(t, 6), nil)
		return rec.Snapshot(nil)
	}
	a, b := run(), run()
	if len(a) != 6 {
		t.Fatalf("got %d flight records, want 6", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical virtual-clock runs produced different flight records")
	}
	billed := 0
	for _, rc := range a {
		if rc.Code != flight.CodeDegraded || rc.Tier != -1 {
			t.Fatalf("all-tiers-failed pair logged %+v, want degraded tier -1", rc)
		}
		if rc.CostNano > 0 {
			billed++
		}
	}
	// Early pairs pay for their failed attempts; once the breaker opens,
	// later pairs short-circuit unbilled.
	if billed == 0 {
		t.Fatal("failed attempts must still be billed in the flight records")
	}

	// A healthy tier logs scored records with its tier index.
	rec := flight.New(64)
	ok := &stubBackend{name: "stringsim", match: true, conf: 0.9}
	r := newTestRouter(t, Config{Clock: &clock.Virtual{}, Flight: rec}, ok)
	r.RoutePairs(beerTask(t, 3), nil)
	for _, rc := range rec.Snapshot(nil) {
		if rc.Code != flight.CodeScored || rc.Tier != 0 || rc.Pairs != 1 {
			t.Fatalf("healthy pair logged %+v", rc)
		}
	}
}
