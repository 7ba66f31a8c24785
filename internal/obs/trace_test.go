package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanHierarchyAndJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if spanFrom(ctx) == nil {
		t.Fatal("context with tracer must report enabled")
	}

	ctx1, cell := Start(ctx, "cell")
	cell.SetStr("matcher", "StringSim")
	cell.SetInt("pairs", 1250)
	cell.SetFloat("usd", 0.125)
	_, train := Start(ctx1, "train")
	time.Sleep(time.Millisecond)
	train.End()
	_, predict := Start(ctx1, "predict")
	predict.End()
	cell.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	// Records are start-ordered: cell first.
	if recs[0].Name != "cell" || recs[0].Parent != 0 {
		t.Fatalf("first record = %+v, want root cell", recs[0])
	}
	for _, r := range recs[1:] {
		if r.Parent != recs[0].ID {
			t.Fatalf("span %q parent = %d, want %d", r.Name, r.Parent, recs[0].ID)
		}
	}
	if recs[0].Str("matcher") != "StringSim" || recs[0].Int("pairs") != 1250 || recs[0].Float("usd") != 0.125 {
		t.Fatalf("cell attrs = %+v", recs[0].Attrs)
	}
	if err := CheckNesting(recs); err != nil {
		t.Fatal(err)
	}
	if d := Depth(recs); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}

	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("round trip lost records: %d", len(back))
	}
	if err := CheckNesting(back); err != nil {
		t.Fatal(err)
	}
	if back[0].Int("pairs") != 1250 || back[0].Float("usd") != 0.125 || back[0].Str("matcher") != "StringSim" {
		t.Fatalf("round-tripped attrs = %+v", back[0].Attrs)
	}
}

func TestDisabledTracingIsInert(t *testing.T) {
	// nil context, background context, nil span, nil stages: all no-ops.
	ctx, span := Start(context.Background(), "x")
	if span != nil || spanFrom(ctx) != nil {
		t.Fatal("untraced context must yield a nil span")
	}
	span.SetInt("k", 1)
	span.SetStr("k", "v")
	span.SetFloat("k", 1.5)
	span.End()
	span.Child("y").End()

	st := StartStages(context.Background())
	st.Enter("serialize")
	st.SetInt("serialize", "pairs", 5)
	st.Exit()
	st.End()

	var tr *Tracer
	if tr.Root("x") != nil || tr.Records() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}

func TestDisabledPathsAllocateNothing(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		c, s := Start(ctx, "x")
		_ = c
		s.SetInt("pairs", 1)
		s.End()
		st := StartStages(ctx)
		st.Enter("serialize")
		st.Enter("classify")
		st.End()
		var cnt *Counter
		cnt.Add(1)
		var h *Histogram
		h.Observe(5)
	}); n != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f per op, want 0", n)
	}
}

func TestStagesAccumulate(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, parent := Start(ctx, "predict")
	st := StartStages(ctx)
	for i := 0; i < 3; i++ {
		st.Enter("serialize")
		time.Sleep(200 * time.Microsecond)
		st.Enter("classify")
		time.Sleep(200 * time.Microsecond)
	}
	st.SetInt("serialize", "pairs", 3)
	st.SetInt("classify", "pairs", 3)
	st.End()
	parent.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want predict + 2 stages", len(recs))
	}
	if err := CheckNesting(recs); err != nil {
		t.Fatal(err)
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	for _, stage := range []string{"serialize", "classify"} {
		r, ok := byName[stage]
		if !ok {
			t.Fatalf("missing %s span", stage)
		}
		if r.Parent != byName["predict"].ID {
			t.Fatalf("%s parent = %d, want predict", stage, r.Parent)
		}
		if r.Int("calls") != 3 || r.Int("pairs") != 3 {
			t.Fatalf("%s attrs = %+v", stage, r.Attrs)
		}
		if r.DurNS < (3 * 200 * time.Microsecond).Nanoseconds() {
			t.Fatalf("%s accumulated %dns, want >= 600µs", stage, r.DurNS)
		}
	}
	// The two accumulated stage durations cannot exceed the parent.
	if byName["serialize"].DurNS+byName["classify"].DurNS > byName["predict"].DurNS {
		t.Fatal("stage durations exceed their parent")
	}
}

func TestCheckNestingCatchesViolations(t *testing.T) {
	ok := []SpanRecord{
		{ID: 1, Name: "a", StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "b", StartNS: 10, DurNS: 50},
	}
	if err := CheckNesting(ok); err != nil {
		t.Fatal(err)
	}
	bad := [][]SpanRecord{
		{{ID: 1, Name: "a", StartNS: 0, DurNS: 100}, {ID: 2, Parent: 3, Name: "b", StartNS: 0, DurNS: 1}},   // missing parent
		{{ID: 1, Name: "a", StartNS: 0, DurNS: 100}, {ID: 2, Parent: 1, Name: "b", StartNS: 90, DurNS: 20}}, // escapes window
		{{ID: 1, Name: "a", StartNS: 0, DurNS: 1}, {ID: 1, Name: "a", StartNS: 0, DurNS: 1}},                // duplicate id
		{{ID: 0, Name: "a", StartNS: 0, DurNS: 1}},                                                          // zero id
		{{ID: 1, Name: "a", StartNS: 0, DurNS: -5}},                                                         // negative duration
	}
	for i, recs := range bad {
		if err := CheckNesting(recs); err == nil {
			t.Fatalf("case %d: want error, got nil", i)
		}
	}
}

func TestRootSpans(t *testing.T) {
	tr := NewTracer()
	batch := tr.Root("batch")
	batch.SetInt("requests", 2)
	score := batch.Child("score")
	score.End()
	batch.End()
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if err := CheckNesting(recs); err != nil {
		t.Fatal(err)
	}
	if recs[0].Name != "batch" || recs[0].Parent != 0 {
		t.Fatalf("root record = %+v", recs[0])
	}
	if recs[1].Name != "score" || recs[1].Parent != recs[0].ID {
		t.Fatalf("child record = %+v", recs[1])
	}
}
