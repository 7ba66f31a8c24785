package dedup

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

func testConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.N = n
	cfg.Seed = 11
	return cfg
}

func TestRunPipelineQuality(t *testing.T) {
	res, err := Run(context.Background(), testConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4000 {
		t.Fatalf("records %d", res.Records)
	}
	if res.BlockRecall < 0.90 {
		t.Fatalf("blocking recall %.4f below 0.90", res.BlockRecall)
	}
	if res.Metrics.F1 < 0.85 {
		t.Fatalf("cluster F1 %.4f below 0.85", res.Metrics.F1)
	}
	// Sublinearity sanity: the index must verify far fewer pairs than the
	// n² cross product (4000² / 2 = 8M).
	if res.Index.Verifies > 400_000 {
		t.Fatalf("%d verifications — not sublinear", res.Index.Verifies)
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	cfg := testConfig(2500)
	cfg.Parallel = 1
	base, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 0} {
		cfg.Parallel = par
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CandidatePairs != base.CandidatePairs || res.Edges != base.Edges {
			t.Fatalf("parallel=%d: %d cands/%d edges vs %d/%d",
				par, res.CandidatePairs, res.Edges, base.CandidatePairs, base.Edges)
		}
		if len(res.Clusters) != len(base.Clusters) {
			t.Fatalf("parallel=%d: %d clusters vs %d", par, len(res.Clusters), len(base.Clusters))
		}
		for i := range res.Clusters {
			if len(res.Clusters[i].Members) != len(base.Clusters[i].Members) {
				t.Fatalf("parallel=%d: cluster %d sizes differ", par, i)
			}
			for m := range res.Clusters[i].Members {
				if res.Clusters[i].Members[m] != base.Clusters[i].Members[m] {
					t.Fatalf("parallel=%d: cluster %d member %d: %s vs %s",
						par, i, m, res.Clusters[i].Members[m], base.Clusters[i].Members[m])
				}
			}
		}
	}
}

func TestRunRegistryMatcher(t *testing.T) {
	cfg := testConfig(1500)
	cfg.Matcher = "stringsim"
	// Registry matchers are trained on the paper's product benchmarks, so
	// they over-accept the recall-tuned default candidate set (MinJaccard
	// 0.15 keeps cross-entity pairs a domain-fit matcher would need to
	// reject). Quality rides the verification threshold: tighten it to the
	// match band, as a real registry-matcher deployment would.
	cfg.LSH.MinJaccard = 0.3
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges == 0 {
		t.Fatal("registry matcher accepted no edges")
	}
	if res.Metrics.F1 < 0.7 {
		t.Fatalf("registry matcher F1 %.4f", res.Metrics.F1)
	}
}

func TestRunUnknownMatcher(t *testing.T) {
	cfg := testConfig(200)
	cfg.Matcher = "no-such-matcher"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("unknown matcher should fail")
	}
}

func TestRunStreamMode(t *testing.T) {
	cfg := testConfig(2000)
	cfg.Stream = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.F1 < 0.85 {
		t.Fatalf("stream F1 %.4f below 0.85", res.Metrics.F1)
	}
	if res.Index.Records != 2000 {
		t.Fatalf("stream indexed %d records", res.Index.Records)
	}
}

func TestRunEmitsSpans(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := Run(ctx, testConfig(300)); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"dedup.ingest": false, "dedup.build": false, "dedup.probe": false, "dedup.match": false, "dedup.cluster": false}
	for _, s := range tr.Records() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %s not emitted", name)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{N: 0}); err == nil {
		t.Fatal("zero-size corpus should fail")
	}
}

func TestCompareSmallCorpus(t *testing.T) {
	cfg := testConfig(3000)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr := Compare(cfg, res, 0)
	if cr.Extrapolated {
		t.Fatal("3000 records should run the token blocker directly")
	}
	if cr.TokenComparisons == 0 || cr.LSHComparisons == 0 {
		t.Fatalf("zero comparisons reported: %+v", cr)
	}
	if cr.LSHComparisons >= cr.TokenComparisons {
		t.Fatalf("lsh did %d comparisons, token blocker %d — no advantage", cr.LSHComparisons, cr.TokenComparisons)
	}
	if cr.LSHRecall < cr.TokenRecall {
		t.Fatalf("lsh recall %.4f below token %.4f", cr.LSHRecall, cr.TokenRecall)
	}
	t.Logf("3k corpus: token %d comps recall %.4f, lsh %d comps recall %.4f (%.1fx)",
		cr.TokenComparisons, cr.TokenRecall, cr.LSHComparisons, cr.LSHRecall, cr.Ratio)
}

func TestCompareExtrapolates(t *testing.T) {
	cfg := testConfig(6000)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr := Compare(cfg, res, 4000)
	if !cr.Extrapolated {
		t.Fatal("6000 records over a 4000 cap should extrapolate")
	}
	if len(cr.SampleSizes) != 2 || cr.SampleSizes[0] != 1000 || cr.SampleSizes[1] != 4000 {
		t.Fatalf("sample sizes %v", cr.SampleSizes)
	}
	if cr.LSHSampleRecall <= 0 {
		t.Fatalf("extrapolated compare must measure LSH recall on the sample, got %v", cr.LSHSampleRecall)
	}
	// The extrapolation must be at least the largest direct sample (token
	// comparisons grow monotonically with corpus size).
	direct := Compare(cfg, res, 6000)
	if cr.TokenComparisons < direct.TokenComparisons/2 {
		t.Fatalf("extrapolated %d comparisons vs %d direct — fit collapsed", cr.TokenComparisons, direct.TokenComparisons)
	}
}

// TestRunStreamPartitionPinned pins stream mode's entity partition of a
// small corpus: a change to which arriving records merge, or into which
// entity, changes the hash.
func TestRunStreamPartitionPinned(t *testing.T) {
	cfg := testConfig(2000)
	cfg.Stream = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range res.Clusters {
		fmt.Fprintln(h, strings.Join(c.Members, ","))
	}
	const want = "c551c64aedc66c5c66e6bff8db14e12064e505de9181a81f31da2f9efccec22b"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("stream partition of %d clusters hashes to %s, want %s", len(res.Clusters), got, want)
	}
}

// TestRunStreamRejectsRegistryMatcher: stream mode merges on the index's
// verified Jaccard alone, so a registry matcher would be silently ignored.
func TestRunStreamRejectsRegistryMatcher(t *testing.T) {
	cfg := testConfig(200)
	cfg.Stream = true
	cfg.Matcher = "stringsim"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("stream mode accepted a registry matcher it cannot apply")
	}
}
