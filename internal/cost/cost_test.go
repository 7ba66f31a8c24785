package cost

import (
	"math"
	"strings"
	"testing"
)

// publishedTable5 holds the paper's measured Table 5 values, the
// reference the simulated throughput table is held to.
var publishedTable5 = map[string]ThroughputResult{
	"BERT":         {GPUsNeeded: 1, BatchSize: 8192, TokensPerSec: 862001},
	"GPT-2":        {GPUsNeeded: 1, BatchSize: 8192, TokensPerSec: 693999},
	"DeBERTa":      {GPUsNeeded: 1, BatchSize: 4096, TokensPerSec: 216396},
	"T5":           {GPUsNeeded: 1, BatchSize: 8192, TokensPerSec: 530656},
	"LLaMA3.2":     {GPUsNeeded: 1, BatchSize: 4096, TokensPerSec: 264952},
	"LLaMA2-13B":   {GPUsNeeded: 1, BatchSize: 128, TokensPerSec: 26721},
	"Mixtral-8x7B": {GPUsNeeded: 2, BatchSize: 32, TokensPerSec: 2108},
	"Beluga2":      {GPUsNeeded: 4, BatchSize: 32, TokensPerSec: 1079},
	"SOLAR":        {GPUsNeeded: 4, BatchSize: 64, TokensPerSec: 752},
}

func TestTable5MatchesPublishedShape(t *testing.T) {
	for _, r := range Table5() {
		pub, ok := publishedTable5[r.Model.Name]
		if !ok {
			t.Fatalf("no published reference for %s", r.Model.Name)
		}
		if r.GPUsNeeded != pub.GPUsNeeded {
			t.Errorf("%s: simulated %d GPUs, published %d", r.Model.Name, r.GPUsNeeded, pub.GPUsNeeded)
		}
		if r.BatchSize != pub.BatchSize {
			t.Errorf("%s: simulated batch %d, published %d", r.Model.Name, r.BatchSize, pub.BatchSize)
		}
		ratio := r.TokensPerSec / pub.TokensPerSec
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: simulated %.0f tok/s vs published %.0f (x%.2f)",
				r.Model.Name, r.TokensPerSec, pub.TokensPerSec, ratio)
		}
	}
}

func TestTable5Ordering(t *testing.T) {
	// The headline shape: Ditto's BERT is fastest, SOLAR slowest, spanning
	// three orders of magnitude.
	results := Table5()
	byName := make(map[string]float64)
	for _, r := range results {
		byName[r.Model.Name] = r.TokensPerSec
	}
	if byName["BERT"] <= byName["GPT-2"] {
		t.Error("BERT should outrun GPT-2")
	}
	if byName["SOLAR"] >= byName["Beluga2"] {
		t.Error("SOLAR should trail Beluga2 (published order)")
	}
	span := byName["BERT"] / byName["SOLAR"]
	if span < 500 || span > 3000 {
		t.Errorf("BERT/SOLAR throughput span %.0f, published ≈ 1146", span)
	}
	// Unicorn's MoE design pays a structural penalty vs similar-size models.
	if byName["DeBERTa"] >= byName["T5"] {
		t.Error("DeBERTa (MoE routing) should trail the larger T5")
	}
}

func TestGPUsNeeded(t *testing.T) {
	small, _ := PerfByName("BERT")
	if gpusNeeded(small, A100) != 1 {
		t.Error("BERT should fit one GPU")
	}
	mixtral, _ := PerfByName("Mixtral-8x7B")
	if gpusNeeded(mixtral, A100) != 2 {
		t.Error("Mixtral needs two 40GB GPUs")
	}
	solar, _ := PerfByName("SOLAR")
	if gpusNeeded(solar, A100) != 4 {
		t.Error("SOLAR needs four 40GB GPUs")
	}
}

func TestMaxBatchSizePowerOfTwo(t *testing.T) {
	for _, m := range Catalog {
		gpus := gpusNeeded(m, A100)
		b := maxBatchSize(m, FourA100, gpus)
		if b < 1 || b&(b-1) != 0 {
			t.Errorf("%s: batch %d not a power of two", m.Name, b)
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	for _, m := range Catalog {
		gpus := gpusNeeded(m, A100)
		batch := maxBatchSize(m, FourA100, gpus)
		u := utilization(m, batch, gpus)
		if u <= 0 || u > 1 {
			t.Errorf("%s: utilization %v out of (0, 1]", m.Name, u)
		}
	}
}

func TestBiggerGPUHelpsThroughput(t *testing.T) {
	// Scaling behaviour: an 80GB A100 lets Mixtral fit on one GPU, which
	// must not reduce throughput.
	mixtral, _ := PerfByName("Mixtral-8x7B")
	big := Cluster{GPU: GPU{Name: "A100-80GB", MemGB: 80, FP16TFLOPS: 312}, NGPU: 4}
	before := SimulateThroughput(mixtral, FourA100)
	after := SimulateThroughput(mixtral, big)
	if after.GPUsNeeded != 1 {
		t.Fatalf("80GB GPU should hold Mixtral, needs %d", after.GPUsNeeded)
	}
	if after.TokensPerSec <= before.TokensPerSec {
		t.Errorf("removing model parallelism reduced throughput: %.0f -> %.0f",
			before.TokensPerSec, after.TokensPerSec)
	}
}

func TestSelfHostedCostFormula(t *testing.T) {
	// The paper's formula: (p / (2·t·3600)) · 1000.
	got := SelfHostedCostPer1K(862001)
	want := 19.22 / (2 * 862001 * 3600) * 1000
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("cost formula: %v vs %v", got, want)
	}
}

func TestCostForAPIModels(t *testing.T) {
	for model, price := range APIPrice {
		c, err := CostFor(model, FourA100)
		if err != nil {
			t.Fatal(err)
		}
		if c.CostPer1K != price {
			t.Errorf("%s: cost %v, want API price %v", model, c.CostPer1K, price)
		}
		if c.Deployment != string(DeployOpenAIBatch) {
			t.Errorf("%s: deployment %q", model, c.Deployment)
		}
	}
}

func TestCostForHostedCheaperThanSelfHost(t *testing.T) {
	// SOLAR and Beluga2 self-host so slowly that together.ai is cheaper;
	// the chooser must pick it (the paper's Table 6 deployment column).
	for _, model := range []string{"SOLAR", "Beluga2"} {
		c, err := CostFor(model, FourA100)
		if err != nil {
			t.Fatal(err)
		}
		if c.Deployment != string(DeployTogetherAI) {
			t.Errorf("%s: deployment %q, want together.ai", model, c.Deployment)
		}
		if c.CostPer1K != TogetherAIPrice[model] {
			t.Errorf("%s: cost %v", model, c.CostPer1K)
		}
	}
}

func TestCostForUnknownModel(t *testing.T) {
	if _, err := CostFor("unknown-model", FourA100); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestTable6OrderAndShape(t *testing.T) {
	rows, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("Table 6 has %d rows, want 12", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CostPer1K > rows[i-1].CostPer1K {
			t.Fatal("Table 6 not sorted by descending cost")
		}
	}
	if rows[0].Method != "MatchGPT [GPT-4]" {
		t.Errorf("most expensive should be GPT-4, got %s", rows[0].Method)
	}
	if rows[len(rows)-1].Method != "Ditto [BERT]" {
		t.Errorf("cheapest should be Ditto, got %s", rows[len(rows)-1].Method)
	}
	// Headline: GPT-4 is thousands of times more expensive than Ditto.
	span := rows[0].CostPer1K / rows[len(rows)-1].CostPer1K
	if span < 2000 || span > 10000 {
		t.Errorf("GPT-4/Ditto cost span %.0f, published ≈ 4838", span)
	}
}

func TestUsedByCoversCatalog(t *testing.T) {
	for _, m := range Catalog {
		if u := UsedBy(m.Name); strings.Contains(u, "unknown") {
			t.Errorf("UsedBy(%s) unknown", m.Name)
		}
	}
	if !strings.Contains(UsedBy("never-heard-of-it"), "unknown") {
		t.Error("unknown model should say so")
	}
}
