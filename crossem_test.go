package crossem

import (
	"testing"
)

func TestFacadeDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 11 {
		t.Fatalf("DatasetNames = %v", names)
	}
}

func TestFacadeGenerateDataset(t *testing.T) {
	d, err := GenerateDataset("FOZA", 42)
	if err != nil {
		t.Fatal(err)
	}
	if d.Positives() != 110 || len(d.Pairs)-d.Positives() != 836 {
		t.Fatalf("FOZA counts: %d/%d", d.Positives(), len(d.Pairs)-d.Positives())
	}
	if _, err := GenerateDataset("NOPE", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestFacadeHarnessEvaluate(t *testing.T) {
	h := NewHarness([]uint64{1})
	res, err := h.EvaluateTarget(StringSim, "ZOYE")
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher != "StringSim" || res.Target != "ZOYE" {
		t.Fatalf("metadata: %+v", res)
	}
	if len(res.F1s) != 1 {
		t.Fatalf("one seed expected, got %d runs", len(res.F1s))
	}
}

func TestFacadeFactoriesConstruct(t *testing.T) {
	factories := []MatcherFactory{
		StringSim, ZeroER, Ditto, Unicorn,
		AnyMatchGPT2, AnyMatchT5, AnyMatchLLaMA, Jellyfish,
		MatchGPT(ModelGPT4), MatchGPT(ModelMixtral),
	}
	seen := make(map[string]bool)
	for _, f := range factories {
		m := f()
		if m == nil || m.Name() == "" {
			t.Fatal("factory produced an unusable matcher")
		}
		if seen[m.Name()] {
			t.Fatalf("duplicate matcher name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestPairMatcherEndToEnd(t *testing.T) {
	m := PromptMatcher(ModelGPT4, 1)
	a := Record{ID: "a", Values: []string{"blue ridge brewing hoppy trail ipa", "6.2%"}}
	b := Record{ID: "b", Values: []string{"blue ridge brwy hoppy trail india pale ale", "6.2 %"}}
	c := Record{ID: "c", Values: []string{"stone creek stout dark roast", "8.0%"}}
	for _, r := range []Record{a, b, c} {
		m.Observe(SerializeRecord(r))
	}
	pAB := m.MatchProb(a, b)
	pAC := m.MatchProb(a, c)
	if pAB <= pAC {
		t.Fatalf("matching pair p=%.3f not above non-matching p=%.3f", pAB, pAC)
	}
}

func TestBlockerThroughFacade(t *testing.T) {
	d, err := GenerateDataset("ZOYE", 42)
	if err != nil {
		t.Fatal(err)
	}
	var left, right []Record
	for i, p := range d.Pairs {
		if i >= 80 {
			break
		}
		left = append(left, p.Left)
		right = append(right, p.Right)
	}
	b := NewBlocker(BlockerConfig{})
	cands := b.CandidatePairs(left, right)
	if len(cands) == 0 {
		t.Fatal("facade blocker produced no candidates")
	}
}

func TestSerializeRecordHidesSchema(t *testing.T) {
	r := Record{Values: []string{"v1", "v2"}}
	if got := SerializeRecord(r); got != "v1, v2" {
		t.Fatalf("SerializeRecord = %q", got)
	}
}
