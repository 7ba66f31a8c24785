package mlcore

// Hasher maps textual features into a fixed-width index space (the
// "hashing trick"). It is the stand-in for a pretrained embedding table:
// wider spaces collide less and therefore encode more distinctions, which
// is how the study maps language-model scale to encoder capacity.
type Hasher struct {
	width int
}

// NewHasher returns a hasher over a space of the given width (number of
// buckets). Width must be positive.
func NewHasher(width int) *Hasher {
	if width <= 0 {
		panic("mlcore: NewHasher with non-positive width")
	}
	return &Hasher{width: width}
}

// FNV-1a constants matching hash/fnv's 64-bit variant, inlined so prefixed
// feature names ("both:" + token) hash without materialising the
// concatenated string: FNV over prefix-then-feature equals FNV over their
// concatenation.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// IndexPrefixed maps the feature name prefix+feature to a bucket in
// [0, width), without the concatenation allocation.
func (h *Hasher) IndexPrefixed(prefix, feature string) int {
	sum := fnvAdd(fnvAdd(fnvOffset64, prefix), feature)
	return int(sum % uint64(h.width))
}

// SignPrefixed returns a deterministic ±1 for the feature name
// prefix+feature, without the concatenation allocation. Signed hashing
// makes collisions cancel in expectation rather than accumulate.
func (h *Hasher) SignPrefixed(prefix, feature string) float64 {
	sum := fnvAdd(fnvAdd(fnvOffset64, prefix), feature)
	sum ^= 0x5a
	sum *= fnvPrime64
	if sum&1 == 0 {
		return 1
	}
	return -1
}
