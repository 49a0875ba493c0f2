package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.99, 99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is the number of samples a reported percentile must have
// above it.
const minBeyond = 10

// tailPercentile is the highest ladder percentile with at least ten of n
// samples beyond it under the nearest-rank definition (see percentile).
// ok is false when n is too small for even the median to qualify.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of percentile p among n sorted samples.
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p/100*float64(n))))
}

// percentile returns the nearest-rank percentile p of xs (unsorted).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// median of xs; the mean of the middle pair for even counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
