// Package eval implements the study's evaluation protocol: precision,
// recall and F1 metrics, test-set downsampling, and the
// "leave-one-dataset-out" harness that gives a matcher the other ten
// datasets as transfer data and measures it on the unseen target across
// five seeded repetitions (§2.2 of the paper).
package eval

// Confusion is a binary-classification confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe adds one (prediction, truth) outcome.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Precision returns TP / (TP + FP), or 0 when nothing was predicted
// positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 0 when there are no actual positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall (×100, matching the
// paper's percentage scale), or 0 when both are 0.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 100 * 2 * p * r / (p + r)
}

// Score computes the confusion matrix of predictions against labels. The
// slices must have equal length.
func Score(predictions, labels []bool) Confusion {
	if len(predictions) != len(labels) {
		panic("eval: predictions and labels length mismatch")
	}
	var c Confusion
	for i := range predictions {
		c.Observe(predictions[i], labels[i])
	}
	return c
}
