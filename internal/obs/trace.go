package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traceShards is the number of finished-span buffers a Tracer stripes
// appends across. Spans land in the shard of their ID, so concurrent
// goroutines (which hold distinct spans) almost never contend on a lock.
const traceShards = 16

// Tracer collects finished spans. Create with NewTracer, thread through
// code with WithTracer/Start, and read back with Records or WriteJSONL.
// All methods are safe for concurrent use.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	shards [traceShards]traceShard
}

type traceShard struct {
	mu   sync.Mutex
	recs []SpanRecord
	// pad spaces the shards across cache lines so neighbouring locks do
	// not false-share.
	_ [40]byte
}

// NewTracer returns a tracer whose span timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Span is one in-flight traced operation. A nil *Span is a valid
// disabled span: every method returns immediately without allocating.
// A Span is owned by one goroutine at a time; hand-off between
// goroutines must happen-before the receiver touches it.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Duration
	attrs  []Attr
}

// Root opens a parentless span directly on the tracer — for code that
// has no traced context at hand, like pool workers. Returns nil on a nil
// tracer.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: t.nextID.Add(1), name: name, start: t.now()}
}

// Child opens a span under s. Returns nil (disabled) when s is nil.
// Children of the synthetic context root installed by WithTracer (id 0)
// come out as root spans.
func (s *Span) Child(name string) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	return &Span{t: s.t, id: s.t.nextID.Add(1), parent: s.id, name: name, start: s.t.now()}
}

// SetStr attaches a string attribute. Call before End.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: value, kind: attrStr})
}

// SetInt attaches an integer attribute. Call before End.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: value, kind: attrInt})
}

// SetFloat attaches a float attribute. Call before End.
func (s *Span) SetFloat(key string, value float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Float: value, kind: attrFloat})
}

// End finishes the span and hands it to the tracer. Call exactly once;
// a nil span ends for free.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.now()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: s.start.Nanoseconds(),
		DurNS:   (end - s.start).Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.value()
		}
	}
	s.t.record(rec)
}

// Attr is one typed span attribute.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	Float float64
	kind  uint8
}

const (
	attrStr = iota
	attrInt
	attrFloat
)

// value returns the attribute's dynamic value for JSON encoding.
func (a Attr) value() any {
	switch a.kind {
	case attrInt:
		return a.Int
	case attrFloat:
		return a.Float
	default:
		return a.Str
	}
}

// SpanRecord is one finished span — the JSONL wire format and the fold
// input of the run-report generator. Attrs decoded from JSON hold
// float64 for every number; use the Int/Float/Str accessors.
type SpanRecord struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// EndNS returns the span's end timestamp.
func (r SpanRecord) EndNS() int64 { return r.StartNS + r.DurNS }

// Str returns the named string attribute, or "".
func (r SpanRecord) Str(key string) string {
	s, _ := r.Attrs[key].(string)
	return s
}

// Int returns the named numeric attribute truncated to int64, or 0.
func (r SpanRecord) Int(key string) int64 {
	switch v := r.Attrs[key].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

// Float returns the named numeric attribute, or 0.
func (r SpanRecord) Float(key string) float64 {
	switch v := r.Attrs[key].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// record appends a finished span to its ID's shard.
func (t *Tracer) record(rec SpanRecord) {
	sh := &t.shards[rec.ID%traceShards]
	sh.mu.Lock()
	sh.recs = append(sh.recs, rec)
	sh.mu.Unlock()
}

// Len returns the number of finished spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.recs)
		sh.mu.Unlock()
	}
	return n
}

// Records returns every finished span, ordered by start time (ties by
// ID). Safe to call while spans are still being recorded; it snapshots.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	var out []SpanRecord
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.recs...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteJSONL writes every finished span as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range t.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace as JSONL to path and reports the span count
// on report — the tail of every command's -trace flag. A nil tracer (no
// -trace) writes nothing.
func (t *Tracer) WriteFile(path string, report io.Writer) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(report, "wrote %d spans to %s\n", t.Len(), path)
	return nil
}

// ReadJSONL parses a JSONL trace back into span records, skipping blank
// lines.
func ReadJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckNesting validates the structural invariants of a trace: span IDs
// are unique, every non-zero parent exists, and each child's [start, end)
// window lies inside its parent's. Timestamps are nanoseconds from one
// monotonic clock, so the containment check is exact.
func CheckNesting(recs []SpanRecord) error {
	byID := make(map[uint64]SpanRecord, len(recs))
	for _, r := range recs {
		if r.ID == 0 {
			return fmt.Errorf("obs: span %q has id 0", r.Name)
		}
		if _, dup := byID[r.ID]; dup {
			return fmt.Errorf("obs: duplicate span id %d (%q)", r.ID, r.Name)
		}
		if r.DurNS < 0 {
			return fmt.Errorf("obs: span %d (%q) has negative duration %d", r.ID, r.Name, r.DurNS)
		}
		byID[r.ID] = r
	}
	for _, r := range recs {
		if r.Parent == 0 {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			return fmt.Errorf("obs: span %d (%q) references missing parent %d", r.ID, r.Name, r.Parent)
		}
		if r.StartNS < p.StartNS || r.EndNS() > p.EndNS() {
			return fmt.Errorf("obs: span %d (%q) [%d, %d) escapes parent %d (%q) [%d, %d)",
				r.ID, r.Name, r.StartNS, r.EndNS(), p.ID, p.Name, p.StartNS, p.EndNS())
		}
	}
	return nil
}

// Depth returns the maximum parent-chain depth of a trace (roots are
// depth 1), for trace sanity reporting.
func Depth(recs []SpanRecord) int {
	byID := make(map[uint64]SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	max := 0
	for _, r := range recs {
		d := 1
		for r.Parent != 0 {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			d++
			r = p
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Stages accumulates interleaved per-item stage timings into one
// synthetic span per stage. A per-pair loop that serialises then
// classifies calls Enter("serialize") and Enter("classify") each
// iteration; End emits a "serialize" span and a "classify" span whose
// durations are the summed time spent in each stage, parented under the
// context's current span. A nil *Stages (from an untraced context) makes
// every method a no-allocation no-op, so hot loops call unconditionally.
type Stages struct {
	t      *Tracer
	parent uint64
	cur    int
	stamp  time.Duration
	stages []stageAcc
}

type stageAcc struct {
	name  string
	first time.Duration
	acc   time.Duration
	calls int64
	attrs []Attr
}

// StartStages returns a stage accumulator recording under ctx's current
// span, or nil when ctx carries no tracer.
func StartStages(ctx context.Context) *Stages {
	parent := spanFrom(ctx)
	if parent == nil {
		return nil
	}
	return &Stages{t: parent.t, parent: parent.id, cur: -1}
}

// Enter switches the accumulator to the named stage, closing the time
// slice of the previous one. Stage names are expected to be few; lookup
// is linear.
func (st *Stages) Enter(name string) {
	if st == nil {
		return
	}
	now := st.t.now()
	if st.cur >= 0 {
		st.stages[st.cur].acc += now - st.stamp
	}
	idx := -1
	for i := range st.stages {
		if st.stages[i].name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		st.stages = append(st.stages, stageAcc{name: name, first: now})
		idx = len(st.stages) - 1
	}
	st.stages[idx].calls++
	st.cur, st.stamp = idx, now
}

// Exit closes the current stage's time slice without entering another —
// for work between stages that should not be attributed to any of them.
func (st *Stages) Exit() {
	if st == nil {
		return
	}
	if st.cur >= 0 {
		st.stages[st.cur].acc += st.t.now() - st.stamp
		st.cur = -1
	}
}

// SetInt attaches an integer attribute to the named stage's emitted
// span (creating the stage if it has not been entered yet).
func (st *Stages) SetInt(stage, key string, value int64) {
	if st == nil {
		return
	}
	e := st.stage(stage)
	e.attrs = append(e.attrs, Attr{Key: key, Int: value, kind: attrInt})
}

// SetFloat attaches a float attribute to the named stage's emitted span.
func (st *Stages) SetFloat(stage, key string, value float64) {
	if st == nil {
		return
	}
	e := st.stage(stage)
	e.attrs = append(e.attrs, Attr{Key: key, Float: value, kind: attrFloat})
}

func (st *Stages) stage(name string) *stageAcc {
	for i := range st.stages {
		if st.stages[i].name == name {
			return &st.stages[i]
		}
	}
	st.stages = append(st.stages, stageAcc{name: name, first: st.t.now()})
	return &st.stages[len(st.stages)-1]
}

// End closes the current stage and emits one span per stage seen. Each
// span starts at the stage's first Enter, lasts the accumulated time,
// and carries a "calls" attribute counting Enter calls plus any
// SetInt/SetFloat attributes.
func (st *Stages) End() {
	if st == nil {
		return
	}
	st.Exit()
	for i := range st.stages {
		e := &st.stages[i]
		rec := SpanRecord{
			ID:      st.t.nextID.Add(1),
			Parent:  st.parent,
			Name:    e.name,
			StartNS: e.first.Nanoseconds(),
			DurNS:   e.acc.Nanoseconds(),
		}
		rec.Attrs = make(map[string]any, len(e.attrs)+1)
		rec.Attrs["calls"] = e.calls
		for _, a := range e.attrs {
			rec.Attrs[a.Key] = a.value()
		}
		st.t.record(rec)
	}
	st.stages = st.stages[:0]
}
