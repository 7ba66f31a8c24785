package crossem

// Microbenchmarks for the substrate components that dominate the study's
// runtime: featurisation, similarity kernels, training loops, blocking,
// and clustering. These are the profile targets when optimising full
// Table 3 runs.

import (
	"fmt"
	"testing"

	"repro/internal/blocking"
	"repro/internal/boost"
	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/gmm"
	"repro/internal/lm"
	"repro/internal/mlcore"
	"repro/internal/moe"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
	"repro/internal/tokenize"
)

func BenchmarkRatcliffObershelp(b *testing.B) {
	x := "sony professional camcorder hdr-fx1000 black home audio"
	y := "SONY camcorder hdr fx1000, audio equipment, refurbished"
	sc := textsim.AcquireScratch()
	defer sc.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.RatcliffObershelp(x, y)
	}
}

func BenchmarkQGramJaccard(b *testing.B) {
	x := "sony professional camcorder hdr-fx1000 black home audio"
	y := "SONY camcorder hdr fx1000, audio equipment, refurbished"
	px, py := textsim.Shared().Get(x), textsim.Shared().Get(y)
	textsim.QGramJaccardP(px, py) // build both trigram sets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textsim.QGramJaccardP(px, py)
	}
}

func BenchmarkEncoderEncode(b *testing.B) {
	d := datasets.MustGenerate("WAAM", eval.DatasetSeed)
	pairs := make([]record.Pair, 0, 64)
	for i := 0; i < 64 && i < len(d.Pairs); i++ {
		pairs = append(pairs, d.Pairs[i].Pair)
	}
	enc := lm.NewEncoder(lm.DeBERTa.Capacity)
	opts := record.SerializeOptions{Cache: record.NewSerializeCache()}
	// Warm the serialization and profile caches: steady-state encoding
	// (every epoch after the first) runs entirely against warm caches.
	for _, p := range pairs {
		enc.Encode(p, opts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(pairs[i%len(pairs)], opts)
	}
}

// BenchmarkEncodeInto featurises a warm 64-pair ABT batch per op through
// EncodeInto with one held vector, as a trained matcher's prediction head
// does, at the encoder capacities of Ditto, Unicorn and AnyMatch: every
// text derivation is cached, so this is the serving regime.
func BenchmarkEncodeInto(b *testing.B) {
	d := datasets.MustGenerate("ABT", eval.DatasetSeed)
	pairs := make([]record.Pair, 0, 64)
	for i := 0; i < 64 && i < len(d.Pairs); i++ {
		pairs = append(pairs, d.Pairs[i].Pair)
	}
	for _, m := range []struct {
		name string
		prof lm.Profile
	}{{"Ditto", lm.BERT}, {"Unicorn", lm.DeBERTa}, {"AnyMatch", lm.LLaMA32}} {
		b.Run(m.name, func(b *testing.B) {
			enc := lm.NewEncoder(m.prof.Capacity)
			opts := record.SerializeOptions{Cache: record.NewSerializeCache()}
			var vec mlcore.SparseVec
			for _, p := range pairs {
				enc.EncodeInto(&vec, p, opts)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					enc.EncodeInto(&vec, p, opts)
				}
			}
		})
	}
}

// BenchmarkEncodeCold is one fine-tuning pass's featurisation per op: a
// fresh Ditto encoder, sized for the sample as encodePairs sizes it,
// observes a fixed transfer sample (the first 500 pairs of each of four
// datasets, both records of each pair) and then encodes every pair of
// it, so every text derivation is built for text seen for the first
// time, as in a training cell.
func BenchmarkEncodeCold(b *testing.B) {
	var sample []record.Pair
	for _, name := range []string{"DBAC", "FOZA", "BEER", "WAAM"} {
		d := datasets.MustGenerate(name, eval.DatasetSeed)
		for i := 0; i < 500 && i < len(d.Pairs); i++ {
			sample = append(sample, d.Pairs[i].Pair)
		}
	}
	values := 0
	for _, p := range sample {
		values += len(p.Left.Values) + len(p.Right.Values)
	}
	opts := record.SerializeOptions{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := lm.NewEncoder(lm.BERT.Capacity)
		enc.ReserveCorpus(2*len(sample), values)
		for _, p := range sample {
			enc.ObserveRecord(p.Left, opts)
			enc.ObserveRecord(p.Right, opts)
		}
		for _, p := range sample {
			benchVec = enc.Encode(p, opts)
		}
	}
}

// benchVec keeps BenchmarkEncodeCold's vectors live.
var benchVec mlcore.SparseVec

func BenchmarkTokenizerCount(b *testing.B) {
	text := "sony professional camcorder hdr-fx1000 black, home audio equipment, $3,199.99"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokenize.Count(text)
	}
}

func BenchmarkLogRegTraining(b *testing.B) {
	rng := stats.NewRNG(1)
	examples := make([]mlcore.Example, 500)
	for i := range examples {
		var x mlcore.SparseVec
		for k := 0; k < 30; k++ {
			x.Add(rng.Intn(1024), rng.Float64())
		}
		examples[i] = mlcore.Example{X: x, Y: float64(i % 2)}
	}
	cfg := mlcore.LogRegConfig{Dim: 1024, Epochs: 3, LearnRate: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mlcore.TrainLogReg(examples, cfg, stats.NewRNG(uint64(i)))
	}
}

func BenchmarkMLPTraining(b *testing.B) {
	rng := stats.NewRNG(2)
	examples := make([]mlcore.Example, 300)
	for i := range examples {
		var x mlcore.SparseVec
		for k := 0; k < 30; k++ {
			x.Add(rng.Intn(1024), rng.Float64())
		}
		examples[i] = mlcore.Example{X: x, Y: float64(i % 2)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mlcore.NewMLP(mlcore.MLPConfig{Dim: 1024, Hidden: 16, Epochs: 3, LearnRate: 0.02}, stats.NewRNG(uint64(i)))
		m.Train(examples, stats.NewRNG(uint64(i)+1000))
	}
}

func BenchmarkMoETraining(b *testing.B) {
	rng := stats.NewRNG(3)
	examples := make([]mlcore.Example, 200)
	for i := range examples {
		var x mlcore.SparseVec
		for k := 0; k < 20; k++ {
			x.Add(rng.Intn(512), rng.Float64())
		}
		examples[i] = mlcore.Example{X: x, Y: float64(i % 2)}
	}
	cfg := moe.Config{Dim: 512, Experts: 4, Hidden: 8, Epochs: 2, LearnRate: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := moe.New(cfg, stats.NewRNG(uint64(i)))
		m.Train(examples, stats.NewRNG(uint64(i)+1000))
	}
}

func BenchmarkBoosterTraining(b *testing.B) {
	rng := stats.NewRNG(4)
	xs := make([][]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if xs[i][0] > 0.5 {
			ys[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boost.Train(xs, ys, boost.DefaultConfig())
	}
}

func BenchmarkGMMFit(b *testing.B) {
	rng := stats.NewRNG(5)
	xs := make([][]float64, 1000)
	for i := range xs {
		base := 0.2
		if i%5 == 0 {
			base = 0.8
		}
		xs[i] = []float64{
			stats.Clamp(base+0.1*rng.Norm(), 0, 1),
			stats.Clamp(base+0.1*rng.Norm(), 0, 1),
			stats.Clamp(base+0.1*rng.Norm(), 0, 1),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gmm.Fit(xs, gmm.DefaultConfig(), stats.NewRNG(uint64(i)))
	}
}

func BenchmarkBlockingCandidates(b *testing.B) {
	d := datasets.MustGenerate("WAAM", eval.DatasetSeed)
	var left, right []record.Record
	for i, p := range d.Pairs {
		if i >= 1000 {
			break
		}
		left = append(left, p.Left)
		right = append(right, p.Right)
	}
	blocker := blocking.New(blocking.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocker.CandidatePairs(left, right)
	}
}

func BenchmarkClusterResolve(b *testing.B) {
	var edges []cluster.Edge
	for i := 0; i < 5000; i++ {
		edges = append(edges, cluster.Edge{
			A:     fmt.Sprintf("l%d", i),
			B:     fmt.Sprintf("r%d", i%1000),
			Score: 0.5 + float64(i%50)/100,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Resolve(edges, nil, cluster.Config{MaxClusterSize: 20})
	}
}

func BenchmarkBillingEstimate(b *testing.B) {
	d := datasets.MustGenerate("ABT", eval.DatasetSeed)
	pairs := make([]record.Pair, 0, 500)
	for i := 0; i < 500; i++ {
		pairs = append(pairs, d.Pairs[i].Pair)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cost.EstimateBilling("GPT-4", pairs, cost.FourA100); err != nil {
			b.Fatal(err)
		}
	}
}
