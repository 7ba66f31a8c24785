package backend

import (
	"time"

	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/textsim"
)

// Sim wraps a trained matcher in a Profile's failure model. Decisions
// always come from the real matcher — Sim only decides whether the call
// "reaches" it and how long the provider took — so a clean profile is
// bit-identical to calling the matcher directly.
//
// Sim is stateless beyond its configuration: injected outcomes derive
// from hashes of the call's bytes, never from shared counters, so one
// Sim is safe for concurrent use and deterministic at any parallelism.
type Sim struct {
	name    string
	matcher matchers.Matcher
	profile Profile
	rate    float64
	seed    uint64
}

// NewSim builds a backend over a trained matcher. name is the registry
// matcher name, ratePer1K its Table-6 serving rate (cost.RateForMatcher),
// and seed the failure-injection seed shared by a routing experiment.
func NewSim(name string, m matchers.Matcher, p Profile, ratePer1K float64, seed uint64) *Sim {
	return &Sim{name: name, matcher: m, profile: p, rate: ratePer1K, seed: seed}
}

// Name implements Backend.
func (b *Sim) Name() string { return b.name }

// RatePer1K implements Backend.
func (b *Sim) RatePer1K() float64 { return b.rate }

// Predict implements Backend.
func (b *Sim) Predict(task matchers.Task, attempt uint64, out []bool, conf []float64) (time.Duration, error) {
	h := b.callHash(task, attempt)
	p := b.profile
	if p.RateLimitRate > 0 && draw(h, saltRateLimit) < p.RateLimitRate {
		return p.shedLatency(), ErrOverloaded
	}
	lat := b.latency(h, len(task.Pairs))
	if p.FailRate > 0 && draw(h, saltFail) < p.FailRate {
		return lat, ErrUnavailable
	}
	if conf != nil {
		if cs, ok := b.matcher.(matchers.ConfidenceScorer); ok {
			cs.PredictConfidence(task, out, conf)
			return lat, nil
		}
		for i := range conf {
			conf[i] = -1
		}
	}
	matchers.PredictBatch(b.matcher, task, out)
	return lat, nil
}

// latency draws the attempt's simulated duration: the profile's linear
// cost envelope, jittered, with an occasional straggler tail.
func (b *Sim) latency(h uint64, npairs int) time.Duration {
	p := b.profile
	lat := float64(p.BaseLatency) + float64(npairs)*float64(p.PerPairLatency)
	if p.Jitter > 0 {
		lat *= 1 + p.Jitter*(2*draw(h, saltJitter)-1)
	}
	if p.TailRate > 0 && draw(h, saltTail) < p.TailRate {
		lat *= p.TailFactor
	}
	return time.Duration(lat)
}

// callHash folds the call's identity — seed, backend name, the pairs'
// serialized bytes, and the attempt number — into one 64-bit value the
// outcome draws mix from. Hashing the serialized bytes (not interner IDs
// or slice addresses) is what makes outcomes replayable across
// processes and parallelism levels.
func (b *Sim) callHash(task matchers.Task, attempt uint64) uint64 {
	h := b.seed ^ textsim.TokenHash(b.name)
	for _, p := range task.Pairs {
		h = mix(h ^ textsim.TokenHash(record.SerializeRecord(p.Left, task.Opts)))
		h = mix(h ^ textsim.TokenHash(record.SerializeRecord(p.Right, task.Opts)))
	}
	return mix(h ^ attempt*0x9e3779b97f4a7c15)
}

// Salts separate the independent outcome draws of one call.
const (
	saltRateLimit = 0xa24baed4963ee407
	saltFail      = 0x9fb21c651e98df25
	saltJitter    = 0x3c79ac492ba7b653
	saltTail      = 0x1c69b3f74ac4fb91
)

// mix is the SplitMix64 finalizer: a full-avalanche bijection, so
// nearby inputs (consecutive attempts) produce independent-looking
// outputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw maps (hash, salt) to a uniform float64 in [0,1).
func draw(h, salt uint64) float64 {
	return float64(mix(h^salt)>>11) / (1 << 53)
}
