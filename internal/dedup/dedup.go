// Package dedup is the dataset-scale deduplication pipeline: synthetic
// corpus → MinHash/LSH candidate index → verified candidate pairs → match
// → entity clusters. It is the end-to-end workload behind cmd/emdedup and
// the first path in the system that starts from millions of raw records
// instead of a pre-blocked pair file (§2.1's blocking step, at scale).
//
// Every stage is deterministic for a fixed seed at any parallelism level:
// corpus generation and index building ride internal/par's indexed-slot
// contract, probing writes per-record result slots, and edges are folded
// in record order — so the final cluster output is byte-identical whether
// the run used one worker or one per core.
package dedup

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/blocking/lsh"
	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/stream"
)

// Config parameterises one dedup run.
type Config struct {
	// N is the synthetic corpus size (records).
	N int
	// Seed drives corpus generation, index hashing and matcher training.
	Seed uint64
	// Parallel is the worker knob (par.Workers semantics: 0 = one per
	// CPU, 1 = sequential).
	Parallel int
	// LSH tunes the candidate index (zero fields take lsh defaults).
	LSH lsh.Config
	// Matcher scores candidate pairs: "jaccard" (the verified token-set
	// Jaccard from the index, thresholded — the dataset-scale default)
	// or any matchers.ByName name dispatched through the study's
	// matcher registry. Stream mode accepts only "jaccard".
	Matcher string
	// Threshold is the edge-acceptance score for clustering (and the
	// match threshold in -stream mode).
	Threshold float64
	// MaxClusterSize re-splits oversized clusters (0 = no cap).
	MaxClusterSize int
	// Stream ingests incrementally through stream.Ingestor, which merges
	// on the LSH index's verified Jaccard, instead of bulk build + probe.
	Stream bool
}

// DefaultConfig returns the emdedup defaults.
func DefaultConfig() Config {
	return Config{
		N:              10000,
		Seed:           1,
		Matcher:        "jaccard",
		Threshold:      0.5,
		MaxClusterSize: 16,
	}
}

// Corpus regenerates the run's corpus — generation is deterministic for
// the config, so this matches what Run saw (used by -compare, which needs
// the records and truth after the pipeline finished).
func (c Config) Corpus() *datasets.DedupCorpus {
	return datasets.GenerateDedupCorpus(c.N, c.Seed, c.Parallel)
}

// StageTimes records wall time per pipeline stage.
type StageTimes struct {
	Ingest  time.Duration
	Build   time.Duration
	Probe   time.Duration
	Match   time.Duration
	Cluster time.Duration
}

// Result is one completed run.
type Result struct {
	Records  int
	Entities int

	// Index summarises the LSH index after probing (Verifies is the
	// record-comparison count).
	Index lsh.Stats
	// CandidatePairs is the number of unordered candidate pairs emitted.
	CandidatePairs int64
	// BlockRecall is the fraction of true duplicate pairs surviving
	// candidate generation.
	BlockRecall float64
	// Edges is the number of accepted match edges.
	Edges int
	// Clusters is the resolved entity partition (stable order).
	Clusters []cluster.Cluster
	// Metrics scores the clusters against the corpus ground truth.
	Metrics cluster.Metrics

	Times StageTimes
}

// Run executes the pipeline. The context carries optional obs tracing;
// spans cover the ingest/build/probe/match/cluster stages.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dedup: corpus size must be positive, got %d", cfg.N)
	}
	if cfg.Matcher == "" {
		cfg.Matcher = "jaccard"
	}
	if cfg.Stream && cfg.Matcher != "jaccard" {
		return nil, fmt.Errorf("dedup: stream mode merges on the index's verified Jaccard; matcher %q needs the bulk pipeline", cfg.Matcher)
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultConfig().Threshold
	}

	res := &Result{}

	ictx, ispan := obs.Start(ctx, "dedup.ingest")
	t0 := time.Now()
	corpus := datasets.GenerateDedupCorpus(cfg.N, cfg.Seed, cfg.Parallel)
	res.Times.Ingest = time.Since(t0)
	ispan.SetInt("records", int64(len(corpus.Records)))
	ispan.SetInt("entities", int64(corpus.Entities))
	ispan.End()
	_ = ictx
	res.Records = len(corpus.Records)
	res.Entities = corpus.Entities

	if cfg.Stream {
		return runStream(ctx, cfg, corpus, res)
	}

	_, bspan := obs.Start(ctx, "dedup.build")
	t0 = time.Now()
	ix := lsh.BuildRecords(cfg.LSH, corpus.Records, cfg.Parallel)
	res.Times.Build = time.Since(t0)
	st := ix.Stats()
	bspan.SetInt("records", int64(st.Records))
	bspan.SetInt("buckets", int64(st.Buckets))
	bspan.SetInt("postings", st.Postings)
	bspan.End()

	_, pspan := obs.Start(ctx, "dedup.probe")
	t0 = time.Now()
	cands, err := probeAll(ix, cfg.Parallel)
	if err != nil {
		return nil, err
	}
	res.Times.Probe = time.Since(t0)
	res.Index = ix.Stats()
	for _, cs := range cands {
		res.CandidatePairs += int64(len(cs))
	}
	res.BlockRecall = candidateRecall(corpus, cands)
	pspan.SetInt("candidates", res.CandidatePairs)
	pspan.SetInt("verifies", res.Index.Verifies)
	pspan.End()

	mctx, mspan := obs.Start(ctx, "dedup.match")
	mspan.SetStr("matcher", cfg.Matcher)
	t0 = time.Now()
	edges, err := matchCandidates(mctx, cfg, corpus, cands)
	res.Times.Match = time.Since(t0)
	mspan.SetInt("edges", int64(len(edges)))
	mspan.End()
	if err != nil {
		return nil, err
	}
	res.Edges = len(edges)

	_, cspan := obs.Start(ctx, "dedup.cluster")
	t0 = time.Now()
	allIDs := make([]string, len(corpus.Records))
	for i, r := range corpus.Records {
		allIDs[i] = r.ID
	}
	res.Clusters = cluster.Resolve(edges, allIDs, cluster.Config{
		MinScore:       cfg.Threshold,
		MaxClusterSize: cfg.MaxClusterSize,
	})
	res.Metrics = cluster.Evaluate(res.Clusters, corpus.Truth)
	res.Times.Cluster = time.Since(t0)
	cspan.SetInt("clusters", int64(len(res.Clusters)))
	cspan.SetFloat("f1", res.Metrics.F1)
	cspan.End()
	return res, nil
}

// probeAll probes every indexed record with the self-join convention
// (only greater indices), one result slot per record, chunked across
// workers with pooled probers.
func probeAll(ix *lsh.Index, workers int) ([][]lsh.Candidate, error) {
	n := ix.Len()
	out := make([][]lsh.Candidate, n)
	w := par.Workers(workers)
	chunks := w * 8
	if chunks > n {
		chunks = n
	}
	if chunks == 0 {
		return out, nil
	}
	chunkSize := (n + chunks - 1) / chunks
	err := par.Do(chunks, workers, func(c int) error {
		lo, hi := c*chunkSize, (c+1)*chunkSize
		if hi > n {
			hi = n
		}
		p := ix.AcquireProber()
		defer lsh.ReleaseProber(p)
		var buf []lsh.Candidate
		for i := lo; i < hi; i++ {
			buf = p.ProbeStored(i, buf[:0], true)
			if len(buf) > 0 {
				out[i] = append([]lsh.Candidate(nil), buf...)
			}
		}
		return nil
	})
	return out, err
}

// candidateRecall scores candidate generation against the corpus truth
// pairs, orientation-insensitively (the blocking.Recall contract).
func candidateRecall(corpus *datasets.DedupCorpus, cands [][]lsh.Candidate) float64 {
	truth := corpus.TruthPairs()
	if len(truth) == 0 {
		return 1
	}
	found := make(map[[2]string]bool, len(truth))
	for i, cs := range cands {
		for _, c := range cs {
			k := [2]string{corpus.Records[i].ID, corpus.Records[c.Index].ID}
			if !truth[k] {
				k = [2]string{k[1], k[0]}
				if !truth[k] {
					continue
				}
			}
			found[k] = true
		}
	}
	return float64(len(found)) / float64(len(truth))
}

// matchCandidates turns candidate pairs into accepted match edges, either
// by thresholding the verified Jaccard or by dispatching the pairs to a
// registry matcher.
func matchCandidates(ctx context.Context, cfg Config, corpus *datasets.DedupCorpus, cands [][]lsh.Candidate) ([]cluster.Edge, error) {
	if cfg.Matcher == "jaccard" {
		var edges []cluster.Edge
		for i, cs := range cands {
			for _, c := range cs {
				if c.Jaccard >= cfg.Threshold {
					edges = append(edges, cluster.Edge{
						A:     corpus.Records[i].ID,
						B:     corpus.Records[c.Index].ID,
						Score: c.Jaccard,
					})
				}
			}
		}
		return edges, nil
	}

	ready, err := eval.ReadyMatcher(eval.ReadySpec{Matcher: cfg.Matcher, Seed: cfg.Seed, Parallel: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	m := ready.Matcher
	task := matchers.Task{Schema: corpus.Schema}
	var jac []float64
	for i, cs := range cands {
		for _, c := range cs {
			task.Pairs = append(task.Pairs, record.Pair{Left: corpus.Records[i], Right: corpus.Records[c.Index]})
			jac = append(jac, c.Jaccard)
		}
	}
	if len(task.Pairs) == 0 {
		return nil, nil
	}
	preds, err := matchers.PredictCtx(ctx, m, task)
	if err != nil {
		return nil, err
	}
	var edges []cluster.Edge
	for k, pred := range preds {
		if !pred {
			continue
		}
		// A positive matcher decision always clears the cluster threshold;
		// the verified Jaccard is kept as the tie-break weight oversized-
		// cluster splitting prefers.
		score := cfg.Threshold + (1-cfg.Threshold)*jac[k]
		edges = append(edges, cluster.Edge{
			A:     task.Pairs[k].Left.ID,
			B:     task.Pairs[k].Right.ID,
			Score: score,
		})
	}
	return edges, nil
}

// runStream is the incremental path: records flow one at a time through
// stream.Ingestor, which probes and files each one in its LSH index; the
// resulting entities are converted to clusters for the same quality report.
func runStream(ctx context.Context, cfg Config, corpus *datasets.DedupCorpus, res *Result) (*Result, error) {
	_, span := obs.Start(ctx, "dedup.stream")
	t0 := time.Now()
	ing := stream.NewIngestor(stream.Config{MatchThreshold: cfg.Threshold, LSH: cfg.LSH})
	for _, r := range corpus.Records {
		ing.Ingest(r)
	}
	res.Times.Build = time.Since(t0)
	res.Index = ing.Index().Stats()
	res.CandidatePairs = res.Index.Emitted

	t0 = time.Now()
	ents := ing.Entities()
	res.Clusters = make([]cluster.Cluster, 0, len(ents))
	for _, e := range ents {
		members := make([]string, len(e.Records))
		for i, r := range e.Records {
			members[i] = r.ID
		}
		sort.Strings(members)
		res.Clusters = append(res.Clusters, cluster.Cluster{Members: members})
	}
	sort.Slice(res.Clusters, func(i, j int) bool {
		if res.Clusters[i].Size() != res.Clusters[j].Size() {
			return res.Clusters[i].Size() > res.Clusters[j].Size()
		}
		return res.Clusters[i].Members[0] < res.Clusters[j].Members[0]
	})
	res.Metrics = cluster.Evaluate(res.Clusters, corpus.Truth)
	res.Times.Cluster = time.Since(t0)
	span.SetInt("entities", int64(len(ents)))
	span.SetFloat("f1", res.Metrics.F1)
	span.End()
	return res, nil
}
