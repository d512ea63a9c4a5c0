package obs

import "math"

// Quantile estimates the p-quantile (0 <= p <= 1) of a histogram
// sample from its cumulative buckets, interpolating linearly within
// the bucket that contains the target rank — the same estimator
// Prometheus's histogram_quantile uses.
//
// Observations are assumed non-negative (every histogram in this
// repository measures a duration), so the first bucket interpolates
// from zero. When the rank lands in the +Inf bucket the highest finite
// bound is returned — the histogram cannot resolve further. NaN is
// returned for a non-histogram sample, an empty histogram, or a NaN p.
func (s Sample) Quantile(p float64) float64 {
	if s.Kind != KindHistogram || s.Count <= 0 || len(s.Buckets) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	lower, prev := 0.0, int64(0)
	for _, b := range s.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return lower
			}
			in := b.Count - prev
			if in <= 0 {
				return lower
			}
			frac := (rank - float64(prev)) / float64(in)
			return lower + (b.UpperBound-lower)*frac
		}
		lower, prev = b.UpperBound, b.Count
	}
	return lower
}
