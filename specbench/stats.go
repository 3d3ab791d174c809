package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile returns the highest of the usual reporting percentiles
// that leaves at least ten samples of n beyond it, and 100 (the
// maximum) when n is too small for any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 80, 75, 50} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 100
}

// segmentMedian splits xs, in arrival order, into k consecutive parts of
// near-equal size and returns the median over the parts of stat(part).
// A burst of host contention that slows one part then moves the result
// by at most one rank among k.
func segmentMedian(xs []float64, k int, stat func([]float64) float64) float64 {
	k = max(1, min(k, len(xs)))
	per := make([]float64, k)
	for i := range k {
		per[i] = stat(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	return median(per)
}

// tail is the tail percentile of xs, by tailPercentile of its size.
func tail(xs []float64) float64 {
	return quantile(xs, tailPercentile(len(xs))/100)
}
