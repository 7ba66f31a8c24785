package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// State is an objective's health.
type State uint8

const (
	// OK: both burn windows under budget.
	OK State = iota
	// Warn: the short window is over budget (a fast burn that has not
	// yet sustained) or the long window is approaching it.
	Warn
	// Breach: both windows over budget — sustained and still burning.
	Breach
)

// String returns the display name (upper case, as rendered by emtool watch).
func (s State) String() string {
	switch s {
	case OK:
		return "OK"
	case Warn:
		return "WARN"
	case Breach:
		return "BREACH"
	}
	return "STATE_" + fmt.Sprint(uint8(s))
}

// MarshalJSON writes the lower-case wire name.
func (s State) MarshalJSON() ([]byte, error) {
	switch s {
	case OK:
		return []byte(`"ok"`), nil
	case Warn:
		return []byte(`"warn"`), nil
	case Breach:
		return []byte(`"breach"`), nil
	}
	return nil, fmt.Errorf("slo: unknown state %d", uint8(s))
}

// UnmarshalJSON reads a wire or display name.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "ok", "OK":
		*s = OK
	case "warn", "WARN":
		*s = Warn
	case "breach", "BREACH":
		*s = Breach
	default:
		return fmt.Errorf("slo: unknown state %q", name)
	}
	return nil
}

// Status is one objective's point-in-time evaluation, served on /slo.
type Status struct {
	Name        string  `json:"name"`
	Spec        string  `json:"spec"`
	Kind        string  `json:"kind"`
	State       State   `json:"state"`
	Limit       float64 `json:"limit"`
	LongSec     float64 `json:"window_long_sec"`
	ShortSec    float64 `json:"window_short_sec"`
	ValueLong   float64 `json:"value_long"`
	ValueShort  float64 `json:"value_short"`
	BurnLong    float64 `json:"burn_long"`
	BurnShort   float64 `json:"burn_short"`
	SinceSec    float64 `json:"since_sec"` // time in the current state
	Transitions int64   `json:"transitions"`
}

// Transition is one state change, delivered to OnTransition callbacks
// (outside the engine lock, in objective order).
type Transition struct {
	Name     string
	From, To State
	At       time.Duration // engine-clock time of the transition
	Status   Status        // the evaluation that caused it
}

// Config configures an Engine.
type Config struct {
	// Clock drives evaluation; nil means the real clock.
	Clock clock.Clock
	// Resolution is the sample spacing the rolling windows retain;
	// window edges snap to it. 0 means 1s. Callers tick at least this
	// often (the serve loop derives its tick from the shortest window).
	Resolution time.Duration
	// WarnFraction is the long-window burn at which an otherwise-OK
	// objective turns WARN. 0 means 0.85.
	WarnFraction float64
}

// maxBurn caps reported burn rates so JSON output stays finite when a
// floor objective observes a zero value.
const maxBurn = 1e6

// sample is one cumulative observation: scalar readings a/b/c for
// ratio/cost/f1 objectives, a bucket-count snapshot for latency ones.
type sample struct {
	at      time.Duration
	a, b, c float64
	buckets []int64
}

// objective is one Spec bound to its cumulative sources plus the
// rolling sample ring.
type objective struct {
	spec Spec
	hist *obs.Histogram  // latency
	fnA  func() float64  // ratio: bad; cost: dollars; f1: tp
	fnB  func() float64  // ratio: total; cost: pairs; f1: fp
	fnC  func() float64  // f1: fn
	ring []sample
	n    int // samples pushed; ring index n-1 is newest
	delta []int64 // scratch for windowed bucket deltas

	state       State
	since       time.Duration
	transitions int64
	last        Status

	// lock-free mirrors for metric exposition
	stateAtomic atomic.Int32
	burnBits    atomic.Uint64 // math.Float64bits of the long-window burn
}

// Engine evaluates a set of objectives on each Tick. A nil *Engine is
// a valid disabled engine: Tick and Snapshot return nil, Worst returns
// OK — serving pays nothing when no SLOs are configured.
type Engine struct {
	clock    clock.Clock
	res      time.Duration
	warnFrac float64

	mu      sync.Mutex
	objs    []*objective
	cbs     []func(Transition)
	scratch []Status

	ticks       atomic.Int64
	transitions atomic.Int64
}

// NewEngine returns an engine with no objectives; bind them with the
// Add* methods before the first Tick.
func NewEngine(cfg Config) *Engine {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.Resolution <= 0 {
		cfg.Resolution = time.Second
	}
	if cfg.WarnFraction <= 0 {
		cfg.WarnFraction = 0.85
	}
	return &Engine{clock: cfg.Clock, res: cfg.Resolution, warnFrac: cfg.WarnFraction}
}

// Resolution returns the engine's sample spacing.
func (e *Engine) Resolution() time.Duration {
	if e == nil {
		return 0
	}
	return e.res
}

// add validates and registers one objective, sizing its ring to hold
// the long window at the engine resolution.
func (e *Engine) add(o *objective) error {
	cap := int(o.spec.Long/e.res) + 2
	if cap < 3 {
		cap = 3
	}
	o.ring = make([]sample, cap)
	if o.spec.Kind == KindLatency {
		nb := o.hist.NumBuckets()
		if nb == 0 {
			return fmt.Errorf("slo: %s: nil latency histogram", o.spec)
		}
		for i := range o.ring {
			o.ring[i].buckets = make([]int64, 0, nb)
		}
		o.delta = make([]int64, nb)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.objs = append(e.objs, o)
	return nil
}

// AddLatency binds a latency-quantile ceiling to a log2 µs histogram.
func (e *Engine) AddLatency(sp Spec, h *obs.Histogram) error {
	if sp.Kind != KindLatency {
		return fmt.Errorf("slo: %s is not a latency objective", sp)
	}
	return e.add(&objective{spec: sp, hist: h})
}

// AddRatio binds a rate ceiling to two cumulative readers: the windowed
// value is Δbad/Δtotal.
func (e *Engine) AddRatio(sp Spec, bad, total func() float64) error {
	if sp.Kind != KindRatio {
		return fmt.Errorf("slo: %s is not a ratio objective", sp)
	}
	return e.add(&objective{spec: sp, fnA: bad, fnB: total})
}

// AddCost binds a $-per-1K-pairs ceiling: Δdollars*1000/Δpairs.
func (e *Engine) AddCost(sp Spec, dollars, pairs func() float64) error {
	if sp.Kind != KindCost {
		return fmt.Errorf("slo: %s is not a cost objective", sp)
	}
	return e.add(&objective{spec: sp, fnA: dollars, fnB: pairs})
}

// AddF1 binds an F1 floor to cumulative confusion counts; the windowed
// value is F1 of the deltas. Windows with no labeled traffic read as
// "no data" and burn 0.
func (e *Engine) AddF1(sp Spec, tp, fp, fn func() float64) error {
	if sp.Kind != KindF1 {
		return fmt.Errorf("slo: %s is not an f1 objective", sp)
	}
	return e.add(&objective{spec: sp, fnA: tp, fnB: fp, fnC: fn})
}

// Objectives returns the number of bound objectives.
func (e *Engine) Objectives() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.objs)
}

// OnTransition registers a callback fired on every state change, after
// the tick that caused it, outside the engine lock.
func (e *Engine) OnTransition(cb func(Transition)) {
	if e == nil || cb == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cbs = append(e.cbs, cb)
}

// Tick samples every objective's sources at the current clock reading,
// re-evaluates states, and fires transition callbacks. It returns the
// fresh statuses in registration order; the slice is reused by the
// next Tick — copy it to retain. Allocation-free at steady state.
func (e *Engine) Tick() []Status {
	if e == nil {
		return nil
	}
	now := e.clock.Now()
	// fired is local (not engine scratch): its contents outlive the
	// lock, and transitions are rare enough that the allocation on a
	// transition tick is irrelevant — steady-state ticks see none.
	var fired []Transition
	e.mu.Lock()
	e.ticks.Add(1)
	e.scratch = e.scratch[:0]
	for _, o := range e.objs {
		st := e.evaluate(o, now)
		if st.State != o.state {
			o.transitions++
			e.transitions.Add(1)
			st.Transitions = o.transitions
			tr := Transition{Name: o.spec.Name, From: o.state, To: st.State, At: now, Status: st}
			o.state = st.State
			o.since = now
			fired = append(fired, tr)
		}
		st.SinceSec = (now - o.since).Seconds()
		st.Transitions = o.transitions
		o.last = st
		o.stateAtomic.Store(int32(o.state))
		o.burnBits.Store(math.Float64bits(st.BurnLong))
		e.scratch = append(e.scratch, st)
	}
	cbs := e.cbs
	out := e.scratch
	e.mu.Unlock()
	for _, tr := range fired {
		for _, cb := range cbs {
			cb(tr)
		}
	}
	return out
}

// evaluate pushes one cumulative sample for o and scores both windows.
// Called with the engine lock held.
func (e *Engine) evaluate(o *objective, now time.Duration) Status {
	s := &o.ring[o.n%len(o.ring)]
	o.n++
	s.at = now
	switch o.spec.Kind {
	case KindLatency:
		s.buckets = o.hist.BucketCountsInto(s.buckets[:0])
	case KindF1:
		s.a, s.b, s.c = o.fnA(), o.fnB(), o.fnC()
	default: // ratio, cost
		s.a, s.b = o.fnA(), o.fnB()
	}
	cur := s
	vLong := o.windowValue(cur, o.sampleAt(now-o.spec.Long))
	vShort := o.windowValue(cur, o.sampleAt(now-o.spec.Short))
	bLong := o.spec.burn(vLong)
	bShort := o.spec.burn(vShort)
	state := OK
	switch {
	case bLong >= 1 && bShort >= 1:
		state = Breach
	case bShort >= 1 || bLong >= e.warnFrac:
		state = Warn
	}
	return Status{
		Name: o.spec.Name, Spec: o.spec.String(), Kind: o.spec.Kind.String(),
		State: state, Limit: o.spec.Limit,
		LongSec: o.spec.Long.Seconds(), ShortSec: o.spec.Short.Seconds(),
		ValueLong: vLong, ValueShort: vShort, BurnLong: bLong, BurnShort: bShort,
	}
}

// sampleAt returns the newest retained sample observed at or before
// cut, or the oldest retained one when the ring does not reach back
// that far (windows clamp to available history).
func (o *objective) sampleAt(cut time.Duration) *sample {
	n := len(o.ring)
	count := o.n
	if count > n {
		count = n
	}
	var oldest *sample
	for i := 1; i <= count; i++ {
		s := &o.ring[(o.n-i)%n]
		oldest = s
		if s.at <= cut {
			return s
		}
	}
	return oldest
}

// windowValue computes the objective's value over the delta between
// two cumulative samples. Negative return means "no data in window".
func (o *objective) windowValue(cur, old *sample) float64 {
	if old == nil || old == cur {
		return noData(o.spec.Kind)
	}
	switch o.spec.Kind {
	case KindLatency:
		for i := range o.delta {
			d := cur.buckets[i] - old.buckets[i]
			if d < 0 {
				d = 0
			}
			o.delta[i] = d
		}
		return obs.QuantileLog2(o.delta, o.spec.Quantile)
	case KindRatio:
		bad, tot := cur.a-old.a, cur.b-old.b
		if tot <= 0 {
			return 0
		}
		if bad < 0 {
			bad = 0
		}
		return bad / tot
	case KindCost:
		dollars, pairs := cur.a-old.a, cur.b-old.b
		if pairs <= 0 {
			return 0
		}
		if dollars < 0 {
			dollars = 0
		}
		return dollars * 1000 / pairs
	case KindF1:
		tp, fp, fn := cur.a-old.a, cur.b-old.b, cur.c-old.c
		if tp+fp+fn <= 0 {
			return -1 // no labeled traffic in window
		}
		denom := 2*tp + fp + fn
		if denom <= 0 {
			return 0
		}
		return 2 * tp / denom
	}
	return 0
}

// noData is the empty-window value: 0 for ceilings (nothing observed,
// nothing burned), -1 ("no data", burn 0) for floors — a floor must
// not breach just because no labeled traffic arrived.
func noData(k Kind) float64 {
	if k == KindF1 {
		return -1
	}
	return 0
}

// burn maps a windowed value to a burn rate: fraction of the budget
// consumed, ≥1 meaning the objective is violated in that window.
func (sp Spec) burn(v float64) float64 {
	if v < 0 {
		return 0 // no data
	}
	if sp.Floor {
		if sp.Limit <= 0 {
			return 0
		}
		if v <= 0 {
			return maxBurn
		}
		if b := sp.Limit / v; b < maxBurn {
			return b
		}
		return maxBurn
	}
	if sp.Limit <= 0 {
		return 0
	}
	if b := v / sp.Limit; b < maxBurn {
		return b
	}
	return maxBurn
}

// Snapshot returns a copy of the most recent evaluation (empty before
// the first Tick). Safe to retain.
func (e *Engine) Snapshot() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.objs))
	for _, o := range e.objs {
		out = append(out, o.last)
	}
	return out
}

// Worst returns the worst state across objectives (OK when disabled).
func (e *Engine) Worst() State {
	if e == nil {
		return OK
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	worst := OK
	for _, o := range e.objs {
		if o.state > worst {
			worst = o.state
		}
	}
	return worst
}

// Ticks returns how many evaluations have run.
func (e *Engine) Ticks() int64 {
	if e == nil {
		return 0
	}
	return e.ticks.Load()
}

// Transitions returns the total state changes across objectives.
func (e *Engine) Transitions() int64 {
	if e == nil {
		return 0
	}
	return e.transitions.Load()
}

// RegisterMetrics exposes per-objective gauges on reg:
// slo_<name>_state (0 OK / 1 WARN / 2 BREACH), slo_<name>_burn_long,
// plus slo_worst_state and slo_transitions_total. Reads are lock-free
// (atomic mirrors updated by Tick).
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.mu.Lock()
	objs := append([]*objective(nil), e.objs...)
	e.mu.Unlock()
	for _, o := range objs {
		o := o
		base := "slo_" + sanitizeMetric(o.spec.Name)
		reg.GaugeFunc(base+"_state", "SLO state of "+o.spec.String()+" (0 OK, 1 WARN, 2 BREACH)",
			func() float64 { return float64(o.stateAtomic.Load()) })
		reg.GaugeFunc(base+"_burn_long", "long-window burn rate of "+o.spec.String(),
			func() float64 { return math.Float64frombits(o.burnBits.Load()) })
	}
	reg.GaugeFunc("slo_worst_state", "worst SLO state across objectives", func() float64 {
		worst := int32(0)
		for _, o := range objs {
			if s := o.stateAtomic.Load(); s > worst {
				worst = s
			}
		}
		return float64(worst)
	})
	reg.CounterFunc("slo_transitions_total", "SLO state transitions", func() float64 {
		return float64(e.transitions.Load())
	})
}

// sanitizeMetric maps an objective name into the metric-name alphabet.
func sanitizeMetric(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
		case c >= 'A' && c <= 'Z':
			b[i] = c + ('a' - 'A')
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// FormatStatus renders one status as a fixed-width dashboard line —
// shared by emserve's loadgen report and emtool watch.
func FormatStatus(st Status) string {
	sp := Spec{Kind: kindFromString(st.Kind), Floor: st.Kind == "f1"}
	return fmt.Sprintf("%-28s %-6s long %s (burn %.2f)  short %s (burn %.2f)",
		st.Spec, st.State, sp.FormatValue(st.ValueLong), st.BurnLong,
		sp.FormatValue(st.ValueShort), st.BurnShort)
}

func kindFromString(s string) Kind {
	switch s {
	case "latency":
		return KindLatency
	case "ratio":
		return KindRatio
	case "cost":
		return KindCost
	case "f1":
		return KindF1
	}
	return KindRatio
}
