// Package lm implements the language-model substrate of the study. The
// paper fine-tunes and prompts real transformer models; this reproduction
// replaces them with two mechanistic components that exercise the same
// pipeline:
//
//   - a fine-tuning encoder (hashed textual features whose richness scales
//     with model size) used by the trained matchers, and
//   - a capability-profiled zero-shot matching engine used by the prompted
//     matchers (MatchGPT, Jellyfish), where each simulated model's profile
//     gates which matching evidence it can exploit and how noisy its
//     decisions are.
//
// The profiles are calibrated so that the quality ladder and failure modes
// reported in the paper (GPT-3.5 < open LLMs < GPT-4o-Mini < GPT-4; strong
// LLM performance on domain-specific product language; demonstrations
// confusing weaker models) emerge from live predictions rather than being
// hard-coded. See DESIGN.md for the substitution rationale.
package lm

// Kind is the architectural family of a language model, which determines
// how a matcher can use it (encoder models need a prediction head,
// generative models can be fine-tuned model-agnostically or prompted).
type Kind int

// Model kinds.
const (
	KindEncoder Kind = iota // encoder-only: BERT, DeBERTa
	KindSeq2Seq             // encoder-decoder: T5
	KindDecoder             // decoder-only: GPT-2, LLaMA
	KindAPI                 // proprietary API-only: GPT-3.5/4/4o-Mini
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindEncoder:
		return "encoder"
	case KindSeq2Seq:
		return "seq2seq"
	case KindDecoder:
		return "decoder"
	case KindAPI:
		return "api"
	default:
		return "unknown"
	}
}

// Capabilities parameterises a model's zero-shot matching behaviour. Every
// field is a strength in [0, 1]; the prompting engine uses them to gate
// evidence signals (see evidence.go).
type Capabilities struct {
	// Normalization is the ability to see through surface variation:
	// casing, punctuation, token reordering.
	Normalization float64
	// Semantics is the coverage of world knowledge — abbreviations,
	// synonyms, brand/venue aliases ("VLDB" = "very large data bases").
	Semantics float64
	// Numeracy is the ability to reconcile numeric formats and tolerate
	// small numeric differences while catching large ones.
	Numeracy float64
	// Attention is the ability to weight rare discriminative tokens (model
	// numbers, phone numbers) over frequent filler tokens.
	Attention float64
	// Robustness is resistance to long noisy free-text fields (marketing
	// descriptions) — the paper's Finding 4 behaviour on WDC/WAAM.
	Robustness float64
	// Calibration shifts the decision threshold toward the optimum; poorly
	// calibrated models over- or under-predict matches on skewed data.
	Calibration float64
	// DecisionNoise is the standard deviation of logit noise; smaller for
	// more capable models.
	DecisionNoise float64
	// DemoGain sets how far in-context examples pull the decision
	// threshold toward their own mean evidence score (Table 4): |DemoGain|
	// of the way per demonstration that shares the largest source dataset,
	// capped at the whole way. The engine reads only the magnitude. The
	// sign records the direction the paper reports, negative where
	// demonstrations confuse (GPT-3.5, GPT-4o-Mini) and positive for
	// GPT-4's subtle gains; whether a pull helps or hurts follows from
	// where the model's own threshold sat.
	DemoGain float64
	// DemoNoise is extra decision noise per demonstration, the same for
	// every selection strategy, modelling the increased sensitivity
	// demonstrations introduce.
	DemoNoise float64
}

// Profile describes one language model in the study.
type Profile struct {
	// Name is the model name as used in the paper's tables.
	Name string
	// ParamsMillions is the (assumed) parameter count in millions, as the
	// paper reports it (e.g. 1,760,000 for GPT-4).
	ParamsMillions float64
	// Kind is the architecture family.
	Kind Kind
	// OpenWeight reports whether the model can be self-hosted; API-only
	// models are priced per token instead.
	OpenWeight bool
	// RAMGB is the 16-bit-precision memory footprint used in Table 5
	// (open-weight models only).
	RAMGB float64
	// FineTunable reports whether the study fine-tunes this model (the
	// SLMs) rather than prompting it.
	FineTunable bool
	// Zero holds the zero-shot capabilities (prompted models).
	Zero Capabilities
	// Capacity holds the fine-tuning encoder capacity (fine-tuned models).
	Capacity EncoderCapacity
}

// EncoderCapacity maps model scale to encoder richness for fine-tuning.
type EncoderCapacity struct {
	// HashWidth is the feature-space width (larger = fewer collisions =
	// more distinctions representable).
	HashWidth int
	// CharGrams enables character n-gram features (subword sensitivity).
	CharGrams bool
	// Hidden is the prediction-head hidden size; 0 means a linear head.
	Hidden int
	// Epochs is the number of fine-tuning passes.
	Epochs int
	// LearnRate is the fine-tuning step size.
	LearnRate float64
	// Pretraining is the strength [0,1] of pretrained lexical knowledge
	// mixed into the features (IDF quality, normalisation of rare domain
	// tokens). Larger pretrained models start from better text
	// representations — the mechanism behind Finding 4's gap on
	// domain-specific language.
	Pretraining float64
}

// Profiles for every model in the study, keyed by the names used in the
// paper's tables. Parameter counts, RAM footprints, and the
// open-weight/API split follow Tables 3 and 5.
var (
	// BERT backs Ditto (110M params).
	BERT = Profile{
		Name: "BERT", ParamsMillions: 110, Kind: KindEncoder, OpenWeight: true,
		RAMGB: 0.21, FineTunable: true,
		Capacity: EncoderCapacity{
			HashWidth: 1 << 14, CharGrams: false, Hidden: 0,
			Epochs: 3, LearnRate: 0.02, Pretraining: 0.17,
		},
	}
	// DeBERTa backs Unicorn (143M params).
	DeBERTa = Profile{
		Name: "DeBERTa", ParamsMillions: 143, Kind: KindEncoder, OpenWeight: true,
		RAMGB: 0.27, FineTunable: true,
		Capacity: EncoderCapacity{
			HashWidth: 1 << 15, CharGrams: true, Hidden: 24,
			Epochs: 4, LearnRate: 0.01, Pretraining: 0.56,
		},
	}
	// GPT2 backs AnyMatch[GPT-2] (124M params).
	GPT2 = Profile{
		Name: "GPT-2", ParamsMillions: 124, Kind: KindDecoder, OpenWeight: true,
		RAMGB: 0.26, FineTunable: true,
		Capacity: EncoderCapacity{
			HashWidth: 1 << 15, CharGrams: true, Hidden: 16,
			Epochs: 4, LearnRate: 0.012, Pretraining: 0.60,
		},
	}
	// T5 backs AnyMatch[T5] (220M params).
	T5 = Profile{
		Name: "T5", ParamsMillions: 220, Kind: KindSeq2Seq, OpenWeight: true,
		RAMGB: 0.54, FineTunable: true,
		Capacity: EncoderCapacity{
			HashWidth: 1 << 15, CharGrams: true, Hidden: 12,
			Epochs: 3, LearnRate: 0.012, Pretraining: 0.46,
		},
	}
	// LLaMA32 backs AnyMatch[LLaMA3.2] (1.3B params).
	LLaMA32 = Profile{
		Name: "LLaMA3.2", ParamsMillions: 1300, Kind: KindDecoder, OpenWeight: true,
		RAMGB: 2.30, FineTunable: true,
		Capacity: EncoderCapacity{
			HashWidth: 1 << 17, CharGrams: true, Hidden: 32,
			Epochs: 5, LearnRate: 0.008, Pretraining: 0.93,
		},
	}
	// LLaMA213B backs Jellyfish (13B params, instruction-tuned).
	LLaMA213B = Profile{
		Name: "LLaMA2-13B", ParamsMillions: 13000, Kind: KindDecoder, OpenWeight: true,
		RAMGB: 24.46,
		Zero: Capabilities{
			Normalization: 0.83, Semantics: 0.68, Numeracy: 0.58,
			Attention: 0.55, Robustness: 0.50, Calibration: 0.60,
			DecisionNoise: 1.1, DemoGain: -0.05, DemoNoise: 0.25,
		},
	}
	// Mixtral8x7B backs MatchGPT[Mixtral-8x7B] (56B params).
	Mixtral8x7B = Profile{
		Name: "Mixtral-8x7B", ParamsMillions: 56000, Kind: KindDecoder, OpenWeight: true,
		RAMGB: 73.73,
		Zero: Capabilities{
			Normalization: 0.75, Semantics: 0.58, Numeracy: 0.45,
			Attention: 0.42, Robustness: 0.40, Calibration: 0.45,
			DecisionNoise: 1.5, DemoGain: -0.08, DemoNoise: 0.35,
		},
	}
	// SOLAR backs MatchGPT[SOLAR] (70B params).
	SOLAR = Profile{
		Name: "SOLAR", ParamsMillions: 70000, Kind: KindDecoder, OpenWeight: true,
		RAMGB: 128.64,
		Zero: Capabilities{
			Normalization: 0.78, Semantics: 0.60, Numeracy: 0.48,
			Attention: 0.45, Robustness: 0.45, Calibration: 0.45,
			DecisionNoise: 1.4, DemoGain: -0.08, DemoNoise: 0.35,
		},
	}
	// Beluga2 backs MatchGPT[Beluga2] (70B params).
	Beluga2 = Profile{
		Name: "Beluga2", ParamsMillions: 70000, Kind: KindDecoder, OpenWeight: true,
		RAMGB: 128.64,
		Zero: Capabilities{
			Normalization: 0.82, Semantics: 0.66, Numeracy: 0.55,
			Attention: 0.55, Robustness: 0.52, Calibration: 0.55,
			DecisionNoise: 1.2, DemoGain: -0.06, DemoNoise: 0.30,
		},
	}
	// GPT35Turbo backs MatchGPT[GPT-3.5-Turbo] (assumed 175B params).
	GPT35Turbo = Profile{
		Name: "GPT-3.5-Turbo", ParamsMillions: 175000, Kind: KindAPI,
		Zero: Capabilities{
			Normalization: 0.80, Semantics: 0.70, Numeracy: 0.55,
			Attention: 0.45, Robustness: 0.55, Calibration: 0.20,
			DecisionNoise: 2.2, DemoGain: -0.20, DemoNoise: 0.60,
		},
	}
	// GPT4oMini backs MatchGPT[GPT-4o-Mini] (assumed 8B params).
	GPT4oMini = Profile{
		Name: "GPT-4o-Mini", ParamsMillions: 8000, Kind: KindAPI,
		Zero: Capabilities{
			Normalization: 0.92, Semantics: 0.86, Numeracy: 0.80,
			Attention: 0.74, Robustness: 0.80, Calibration: 0.68,
			DecisionNoise: 1.2, DemoGain: -0.10, DemoNoise: 0.30,
		},
	}
	// GPT4 backs MatchGPT[GPT-4] (assumed 1.76T params).
	GPT4 = Profile{
		Name: "GPT-4", ParamsMillions: 1760000, Kind: KindAPI,
		Zero: Capabilities{
			Normalization: 0.98, Semantics: 0.96, Numeracy: 0.92,
			Attention: 0.90, Robustness: 0.92, Calibration: 0.90,
			DecisionNoise: 0.8, DemoGain: +0.06, DemoNoise: 0.08,
		},
	}
)
