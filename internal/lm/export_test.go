package lm

import (
	"sync"

	"repro/internal/datasets"
	"repro/internal/record"
)

// benchmarkPool returns the 11 benchmark datasets, generated once per
// test binary instead of once per test; 42 is eval.DatasetSeed (eval
// imports lm). Tests read the datasets and never modify them.
var benchmarkPool = sync.OnceValue(func() []*record.Dataset { return datasets.GenerateAll(42) })

// BenchmarkPool bridges benchmarkPool to the external lm_test package.
var BenchmarkPool = benchmarkPool
