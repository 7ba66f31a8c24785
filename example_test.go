package crossem_test

import (
	"fmt"

	crossem "repro"
)

// ExamplePromptMatcher shows pair-at-a-time matching with a prompted
// model: serialize, observe, score.
func ExamplePromptMatcher() {
	a := crossem.Record{ID: "a", Values: []string{"golden dragon palace", "415-555-0123"}}
	b := crossem.Record{ID: "b", Values: []string{"GOLDEN dragon palace", "(415) 555-0123"}}

	m := crossem.PromptMatcher(crossem.ModelGPT4, 1)
	m.Observe(crossem.SerializeRecord(a))
	m.Observe(crossem.SerializeRecord(b))

	fmt.Println(m.MatchPair(a, b))
	// Output: true
}

// ExampleGenerateDataset shows deterministic benchmark generation with the
// paper's published statistics.
func ExampleGenerateDataset() {
	d, _ := crossem.GenerateDataset("FOZA", 42)
	fmt.Println(d.FullName, d.Positives(), len(d.Pairs)-d.Positives())
	// Output: Fodors-Zagats 110 836
}

// ExampleResolveEntities shows transitive closure over match decisions.
func ExampleResolveEntities() {
	edges := []crossem.ClusterEdge{
		{A: "r1", B: "r2", Score: 0.9},
		{A: "r2", B: "r3", Score: 0.8},
	}
	clusters := crossem.ResolveEntities(edges, []string{"r1", "r2", "r3", "r4"}, crossem.ClusterConfig{})
	for _, c := range clusters {
		fmt.Println(c.Members)
	}
	// Output:
	// [r1 r2 r3]
	// [r4]
}

// ExampleNewHarness shows the leave-one-dataset-out protocol on a single
// target with one seed.
func ExampleNewHarness() {
	h := crossem.NewHarness([]uint64{1})
	res, _ := h.EvaluateTarget(crossem.StringSim, "ZOYE")
	fmt.Println(res.Matcher, res.Target, len(res.F1s))
	// Output: StringSim ZOYE 1
}
