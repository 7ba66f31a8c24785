package report

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// This file folds a span trace from an instrumented LODO run into the
// per-stage run report: for every (matcher, target, stage) the total
// time, span/call counts, pairs, prompt tokens and Table-6 dollars —
// the breakdown that turns one end-to-end wall-clock number into "where
// did it go".

// StageRow aggregates every span of one stage under one (matcher,
// target) cell group.
type StageRow struct {
	Matcher string
	Target  string
	Stage   string
	Spans   int64 // spans folded into this row
	Calls   int64 // loop iterations (the "calls" attr of stage spans)
	Pairs   int64
	Tokens  int64
	DurNS   int64
	USD     float64
}

// StageReport is the folded run report.
type StageReport struct {
	Rows []StageRow
	// Cache effectiveness appended via AddCache (serialization cache of
	// the harness).
	CacheHits, CacheMisses int64
	hasCache               bool
}

// stageOrder fixes the canonical rendering order of known stage names;
// unknown stages sort after, alphabetically.
var stageOrder = map[string]int{
	"train": 0, "predict": 1, "serialize": 2, "featurise": 3,
	"prompt": 4, "classify": 5, "score": 6,
}

func stageRank(name string) int {
	if r, ok := stageOrder[name]; ok {
		return r
	}
	return len(stageOrder)
}

// FoldSpans folds the spans of an eval trace into per-stage rows. Only
// spans enclosed (transitively) by a "cell" span are folded — the cell
// carries the matcher/target attribution; the cell spans themselves and
// spans from other subsystems are skipped.
func FoldSpans(recs []obs.SpanRecord) *StageReport {
	byID := make(map[uint64]obs.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	// cellOf resolves the enclosing cell span by walking parents.
	cellOf := func(r obs.SpanRecord) (obs.SpanRecord, bool) {
		for r.Parent != 0 {
			p, ok := byID[r.Parent]
			if !ok {
				return obs.SpanRecord{}, false
			}
			if p.Name == "cell" {
				return p, true
			}
			r = p
		}
		return obs.SpanRecord{}, false
	}

	type key struct{ matcher, target, stage string }
	agg := make(map[key]*StageRow)
	var order []key
	for _, r := range recs {
		if r.Name == "cell" {
			continue
		}
		cell, ok := cellOf(r)
		if !ok {
			continue
		}
		k := key{cell.Str("matcher"), cell.Str("target"), r.Name}
		row, ok := agg[k]
		if !ok {
			row = &StageRow{Matcher: k.matcher, Target: k.target, Stage: k.stage}
			agg[k] = row
			order = append(order, k)
		}
		row.Spans++
		row.Calls += r.Int("calls")
		row.Pairs += r.Int("pairs")
		row.Tokens += r.Int("tokens")
		row.DurNS += r.DurNS
		row.USD += r.Float("usd")
	}

	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.matcher != b.matcher {
			return a.matcher < b.matcher
		}
		if a.target != b.target {
			return a.target < b.target
		}
		if ra, rb := stageRank(a.stage), stageRank(b.stage); ra != rb {
			return ra < rb
		}
		return a.stage < b.stage
	})
	rep := &StageReport{}
	for _, k := range order {
		rep.Rows = append(rep.Rows, *agg[k])
	}
	return rep
}

// AddCache attaches serialization-cache effectiveness to the report.
func (r *StageReport) AddCache(hits, misses int64) {
	r.CacheHits, r.CacheMisses = hits, misses
	r.hasCache = true
}

// Render draws the per-stage table (and the cache footer when AddCache
// was called).
func (r *StageReport) Render() string {
	header := []string{"Matcher", "Target", "Stage", "Spans", "Calls", "Pairs", "Time(ms)", "Tokens", "USD"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Matcher,
			row.Target,
			row.Stage,
			fmt.Sprintf("%d", row.Spans),
			fmt.Sprintf("%d", row.Calls),
			fmt.Sprintf("%d", row.Pairs),
			fmt.Sprintf("%.2f", float64(row.DurNS)/1e6),
			fmt.Sprintf("%d", row.Tokens),
			fmt.Sprintf("%.4f", row.USD),
		})
	}
	out := SimpleTable("Per-stage run report", header, rows)
	if r.hasCache {
		total := r.CacheHits + r.CacheMisses
		rate := 0.0
		if total > 0 {
			rate = float64(r.CacheHits) / float64(total)
		}
		out += fmt.Sprintf("\nserialization cache: %d hits / %d misses (%.1f%% hit rate)\n",
			r.CacheHits, r.CacheMisses, 100*rate)
	}
	return out
}
