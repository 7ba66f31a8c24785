package slo

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

func mustSpec(t *testing.T, s string) Spec {
	t.Helper()
	sp, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// The core state machine: a ratio objective walks OK → WARN (short
// window hot) → BREACH (both windows hot) → OK (budget recovers) on a
// virtual clock, entirely deterministically.
func TestEngineBurnRateStates(t *testing.T) {
	vc := &clock.Virtual{}
	e := NewEngine(Config{Clock: vc, Resolution: time.Second})
	var bad, total atomic.Int64
	if err := e.AddRatio(mustSpec(t, "shed<=10%@30s/5s"),
		func() float64 { return float64(bad.Load()) },
		func() float64 { return float64(total.Load()) }); err != nil {
		t.Fatal(err)
	}
	var trs []Transition
	e.OnTransition(func(tr Transition) { trs = append(trs, tr) })

	step := func(dBad, dTotal int64, adv time.Duration) State {
		bad.Add(dBad)
		total.Add(dTotal)
		vc.Sleep(adv)
		sts := e.Tick()
		if len(sts) != 1 {
			t.Fatalf("got %d statuses", len(sts))
		}
		return sts[0].State
	}

	// Clean traffic for 10s: OK.
	for i := 0; i < 10; i++ {
		if st := step(0, 100, time.Second); st != OK {
			t.Fatalf("clean tick %d: state %v, want OK", i, st)
		}
	}
	// A hot burst: the short 5s window sees 50% shed immediately (WARN);
	// once the 30s window's aggregate crosses 10%, BREACH.
	st := step(50, 100, time.Second)
	if st != Warn {
		t.Fatalf("after burst: state %v, want WARN (short window hot)", st)
	}
	for i := 0; st != Breach && i < 10; i++ {
		st = step(50, 100, time.Second)
	}
	if st != Breach {
		t.Fatal("sustained burn never breached")
	}
	if e.Worst() != Breach {
		t.Fatalf("Worst = %v, want BREACH", e.Worst())
	}
	// Recovery: clean traffic until both windows drain.
	for i := 0; st != OK && i < 40; i++ {
		st = step(0, 100, time.Second)
	}
	if st != OK {
		t.Fatal("never recovered to OK")
	}
	// Transition log: OK→WARN→BREACH→(WARN)→OK with sane fields.
	if len(trs) < 3 {
		t.Fatalf("got %d transitions: %+v", len(trs), trs)
	}
	if trs[0].From != OK || trs[0].To != Warn || trs[0].Name != "shed" {
		t.Fatalf("first transition = %+v", trs[0])
	}
	if trs[1].To != Breach || trs[1].Status.BurnLong < 1 || trs[1].Status.BurnShort < 1 {
		t.Fatalf("breach transition = %+v", trs[1])
	}
	if last := trs[len(trs)-1]; last.To != OK {
		t.Fatalf("last transition = %+v", last)
	}
	if got := e.transitions.Load(); got != int64(len(trs)) {
		t.Fatalf("%d transitions counted, want %d", got, len(trs))
	}
}

// Latency objectives window a histogram by differencing bucket
// snapshots: old slow traffic must stop mattering once it leaves the
// long window.
func TestEngineLatencyWindowing(t *testing.T) {
	vc := &clock.Virtual{}
	e := NewEngine(Config{Clock: vc, Resolution: time.Second})
	reg := obs.NewRegistry()
	h := reg.Log2Histogram("lat_us", "")
	if err := e.AddLatency(mustSpec(t, "p99<=1ms@10s/2s"), h); err != nil {
		t.Fatal(err)
	}
	e.Tick() // baseline sample at t=0
	// Slow traffic: 100 observations of 8ms.
	for i := 0; i < 100; i++ {
		h.Observe(8000)
	}
	vc.Sleep(time.Second)
	st := e.Tick()[0]
	if st.State != Breach || st.ValueShort < 4000 {
		t.Fatalf("slow traffic: %+v, want BREACH with p99 ≈ 8ms", st)
	}
	// Fast traffic only from now on: after the long window passes, OK.
	for i := 0; i < 12; i++ {
		for j := 0; j < 100; j++ {
			h.Observe(100)
		}
		vc.Sleep(time.Second)
		e.Tick()
	}
	final := e.Snapshot()[0]
	if final.State != OK || final.ValueLong >= 1000 {
		t.Fatalf("after recovery: %+v, want OK with p99 < 1ms", final)
	}
}

// Determinism pin (acceptance criterion): two engines fed the same
// scripted traffic on virtual clocks produce byte-identical status
// sequences.
func TestEngineDeterministicOnVirtualClock(t *testing.T) {
	run := func() []byte {
		vc := &clock.Virtual{}
		e := NewEngine(Config{Clock: vc, Resolution: 500 * time.Millisecond})
		reg := obs.NewRegistry()
		h := reg.Log2Histogram("lat_us", "")
		var shed, reqs, dollars, pairs atomic.Int64
		if err := e.AddLatency(mustSpec(t, "p99<=2ms@20s/4s"), h); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRatio(mustSpec(t, "shed<=5%@20s/4s"),
			func() float64 { return float64(shed.Load()) },
			func() float64 { return float64(reqs.Load()) }); err != nil {
			t.Fatal(err)
		}
		if err := e.AddCost(mustSpec(t, "cost<=0.5@20s/4s"),
			func() float64 { return float64(dollars.Load()) / 1e6 },
			func() float64 { return float64(pairs.Load()) }); err != nil {
			t.Fatal(err)
		}
		var out []byte
		// Scripted load: phase i drives deterministic traffic shapes.
		for i := 0; i < 120; i++ {
			lat := int64(200 + (i%7)*900)
			if i > 40 && i < 80 {
				lat *= 20 // slow phase
			}
			h.Observe(lat)
			reqs.Add(10)
			if i%3 == 0 {
				shed.Add(int64(i % 5))
			}
			pairs.Add(100)
			dollars.Add(int64(i * 40)) // micro-dollars
			vc.Sleep(500 * time.Millisecond)
			b, err := json.Marshal(e.Tick())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
			out = append(out, '\n')
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical scripted runs produced different status streams")
	}
	// The script must actually exercise the state machine.
	if !strings.Contains(string(a), `"state":"breach"`) || !strings.Contains(string(a), `"state":"ok"`) {
		t.Fatal("script never breached or never recovered — not a meaningful determinism pin")
	}
}

func TestEngineNilAndErrors(t *testing.T) {
	var e *Engine
	if e.Tick() != nil || e.Snapshot() != nil || e.Worst() != OK {
		t.Fatal("nil engine must be disabled")
	}
	e.RegisterMetrics(obs.NewRegistry())
	e.OnTransition(func(Transition) {})

	live := NewEngine(Config{Clock: &clock.Virtual{}})
	if err := live.AddRatio(mustSpec(t, "p99<=5ms"), nil, nil); err == nil {
		t.Fatal("AddRatio accepted a latency spec")
	}
	if err := live.AddLatency(mustSpec(t, "shed<=1%"), nil); err == nil {
		t.Fatal("AddLatency accepted a ratio spec")
	}
	if err := live.AddLatency(mustSpec(t, "p99<=5ms"), nil); err == nil {
		t.Fatal("AddLatency accepted a nil histogram")
	}
}

func TestEngineMetricsExposition(t *testing.T) {
	vc := &clock.Virtual{}
	e := NewEngine(Config{Clock: vc, Resolution: time.Second})
	var bad, total atomic.Int64
	if err := e.AddRatio(mustSpec(t, "shed<=10%@10s/2s"),
		func() float64 { return float64(bad.Load()) },
		func() float64 { return float64(total.Load()) }); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	bad.Add(50)
	total.Add(100)
	vc.Sleep(time.Second)
	e.Tick()
	vc.Sleep(time.Second)
	e.Tick()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"slo_shed_state", "slo_shed_burn_long", "slo_worst_state", "slo_transitions_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	for _, s := range []State{OK, Warn, Breach} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got State
		if err := json.Unmarshal(b, &got); err != nil || got != s {
			t.Fatalf("state %v round trip → %v, %v", s, got, err)
		}
	}
	var s State
	if err := json.Unmarshal([]byte(`"BREACH"`), &s); err != nil || s != Breach {
		t.Fatalf("display-name unmarshal → %v, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`"meh"`), &s); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestFormatStatus(t *testing.T) {
	st := Status{Spec: "p99<=5ms", Kind: "latency", State: Breach,
		ValueLong: 12000, ValueShort: 13000, BurnLong: 2.4, BurnShort: 2.6}
	line := FormatStatus(st)
	for _, want := range []string{"p99<=5ms", "BREACH", "12ms", "burn 2.40"} {
		if !strings.Contains(line, want) {
			t.Fatalf("FormatStatus missing %q: %s", want, line)
		}
	}
}
