package main

import (
	"encoding/json"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
)

// pairsPerRequest is the fixed request size: 64 consecutive pairs of one
// dataset in that dataset's own order, so records shared inside a
// candidate list stay shared inside a request.
const pairsPerRequest = 64

// request is one pre-encoded /match request and what the benchmark
// knows about it.
type request struct {
	dataset string
	pairs   []record.Pair
	labels  []bool
	wire    []byte
	json    []byte // built only for workloads that send JSON
	want    []bool // offline predictions, filled by the oracle
}

// generateDatasets is the pool every workload draws from: all labelled
// pairs of the study's 11 datasets at the study's own dataset seed.
func generateDatasets() []*record.Dataset {
	return datasets.GenerateAllParallel(eval.DatasetSeed, parallelism())
}

// workingSet cuts every dataset into full 64-pair requests (85,312 of
// the 85,568 pairs, 1,333 requests) and keeps an evenly strided sample
// of n of them, so every large dataset is represented in proportion.
// Set-up scores every pair of the working set once: 512 requests are
// 32,768 pairs, about two seconds of stringsim.
func workingSet(all []*record.Dataset, n int, withJSON bool) []*request {
	type chunk struct {
		d  *record.Dataset
		at int
	}
	var pool []chunk
	for _, d := range all {
		for at := 0; at+pairsPerRequest <= len(d.Pairs); at += pairsPerRequest {
			pool = append(pool, chunk{d, at})
		}
	}
	ws := make([]*request, n)
	for i := range ws {
		c := pool[i*len(pool)/len(ws)]
		r := &request{
			dataset: c.d.Name,
			pairs:   make([]record.Pair, pairsPerRequest),
			labels:  make([]bool, pairsPerRequest),
		}
		for j, lp := range c.d.Pairs[c.at : c.at+pairsPerRequest] {
			r.pairs[j], r.labels[j] = lp.Pair, lp.Match
		}
		r.wire = wire.AppendRequest(nil, r.pairs, 0)
		if withJSON {
			r.json = encodeJSON(r.pairs)
		}
		ws[i] = r
	}
	return ws
}

func encodeJSON(pairs []record.Pair) []byte {
	req := serve.MatchRequest{Pairs: make([]serve.PairJSON, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i] = serve.PairJSON{Left: p.Left.Values, Right: p.Right.Values}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and slices of strings always marshal
	}
	return b
}

// requestOrder is the only thing -seed decides: the order in which the
// working set's requests are sent. Pairs never move between requests.
func requestOrder(seed uint64, n int) []int {
	return stats.NewRNG(seed).Split("benchmark:requests").Perm(n)
}
