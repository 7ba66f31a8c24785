package report

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// buildTrace records two cells (same matcher, two targets) with the span
// shapes the eval harness emits, and returns the trace.
func buildTrace() []obs.SpanRecord {
	tr := obs.NewTracer()
	for _, target := range []string{"ABT", "AMGO"} {
		cell := tr.Root("cell")
		cell.SetStr("matcher", "StringSim")
		cell.SetStr("target", target)
		train := cell.Child("train")
		train.End()
		predict := cell.Child("predict")
		predict.SetInt("pairs", 100)
		ser := predict.Child("serialize")
		ser.SetInt("calls", 100)
		ser.End()
		cls := predict.Child("classify")
		cls.SetInt("calls", 100)
		cls.SetInt("pairs", 100)
		cls.End()
		predict.End()
		score := cell.Child("score")
		score.End()
		cell.End()
	}
	// A span outside any cell must be ignored.
	stray := tr.Root("request")
	stray.End()
	return tr.Records()
}

func TestFoldSpans(t *testing.T) {
	rep := FoldSpans(buildTrace())
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 stages x 2 targets): %+v", len(rep.Rows), rep.Rows)
	}
	// Canonical order: matcher, target, then stage rank.
	wantStages := []string{"train", "predict", "serialize", "classify", "score"}
	for i, row := range rep.Rows[:5] {
		if row.Matcher != "StringSim" || row.Target != "ABT" {
			t.Fatalf("row %d grouped as (%s, %s)", i, row.Matcher, row.Target)
		}
		if row.Stage != wantStages[i] {
			t.Fatalf("row %d stage = %q, want %q", i, row.Stage, wantStages[i])
		}
		if row.DurNS < 0 {
			t.Fatalf("row %d negative duration", i)
		}
	}
	for _, row := range rep.Rows {
		switch row.Stage {
		case "classify":
			if row.Calls != 100 || row.Pairs != 100 || row.Spans != 1 {
				t.Fatalf("classify row = %+v", row)
			}
		case "predict":
			if row.Pairs != 100 {
				t.Fatalf("predict row = %+v", row)
			}
		case "request":
			t.Fatalf("stray non-cell span folded: %+v", row)
		}
	}
}

func TestFoldSpansAggregatesAcrossSeeds(t *testing.T) {
	tr := obs.NewTracer()
	for seed := 0; seed < 3; seed++ {
		cell := tr.Root("cell")
		cell.SetStr("matcher", "gpt-4")
		cell.SetStr("target", "WA")
		p := cell.Child("prompt")
		p.SetInt("calls", 1)
		p.SetInt("pairs", 50)
		p.SetInt("tokens", 4000)
		p.SetFloat("usd", 0.12)
		p.End()
		cell.End()
	}
	rep := FoldSpans(tr.Records())
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.Spans != 3 || row.Calls != 3 || row.Pairs != 150 || row.Tokens != 12000 {
		t.Fatalf("aggregated row = %+v", row)
	}
	if row.USD < 0.359 || row.USD > 0.361 {
		t.Fatalf("usd = %v, want 0.36", row.USD)
	}
}

func TestStageReportRender(t *testing.T) {
	rep := FoldSpans(buildTrace())
	rep.AddCache(30, 10)
	out := rep.Render()
	for _, want := range []string{
		"Per-stage run report",
		"Matcher", "Stage", "Time(ms)", "Tokens", "USD",
		"StringSim", "ABT", "AMGO", "classify",
		"serialization cache: 30 hits / 10 misses (75.0% hit rate)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
