package main

import (
	"math"
	"sort"
)

// rank returns the nearest-rank position (1-based) of the q-quantile in
// n samples: the smallest rank with at least q·n samples at or below
// it. The epsilon keeps q·n from rounding up past an exact integer.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank q-quantile of sorted samples
// (0 for none).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond returns how many of n samples rank above the q-quantile. A
// percentile is supported by the sample when at least ten lie beyond
// it; fewer means the tail figure rests on a handful of requests.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
