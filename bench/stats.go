package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between the closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// geomean is the paper's T_g: the n-th root of the product, computed in
// log space. Every input must be positive.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the "percentile" is one or two outliers.
const tailBeyond = 10

// p99 returns the nearest-rank 99th percentile of an ascending slice,
// and false when fewer than tailBeyond samples lie beyond it.
func p99(sorted []float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(0.99*float64(n))) - 1
	return sorted[idx], n-1-idx >= tailBeyond
}
