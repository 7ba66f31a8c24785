package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no benchmark spans). Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 for a root
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer collects spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// cur and req name the handler span and the request in flight. The
	// client is a single closed loop, so whatever a replica transport
	// sees while they are set belongs to that request.
	cur, req atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, request int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int64) int64 {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := now - s.Start
	t.mu.Unlock()
	return d
}

// snapshot copies the finished spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its direct children. Children may overlap each
// other (parallel sub-requests) and may stick out of the parent (a hedge
// that lost the race); the cover is the union of their intervals clipped
// to the parent.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ a, b int64 }
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeSpans writes one span per line to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
