package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of ascending samples by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median returns the middle value of vals (mean of the middle two for an
// even count). vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// minMax returns the smallest and largest of vals.
func minMax(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// tailPercentiles are the tail candidates a slice may report, best
// first, each with the sample count that puts ten samples beyond it.
var tailPercentiles = []struct {
	q    float64
	need int
}{{0.999, 10000}, {0.99, 1000}, {0.95, 200}, {0.90, 100}}

// tailQuantile picks the highest tail percentile that n samples support:
// the one with at least ten samples beyond it. Below a hundred samples
// only the median is defensible.
func tailQuantile(n int) float64 {
	for _, t := range tailPercentiles {
		if n >= t.need {
			return t.q
		}
	}
	return 0.5
}
