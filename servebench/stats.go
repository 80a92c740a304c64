package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 0-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(k, 0), n-1)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles is the ladder the tail percentile is chosen from.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75}

// tailPercentile is the highest percentile of the ladder with at least
// ten of n samples beyond it (the lowest rung when none has).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-1-rank(n, p) >= 10 {
			return p
		}
	}
	return tailPercentiles[len(tailPercentiles)-1]
}

// windowRatio is the ratio of the values a few ranks above and below the
// p-th percentile: the window is ±5 points at the median and a quarter
// of the distance to 100 for a tail percentile. A ratio near 1 puts the
// percentile inside one latency mode; a large one puts it on the
// boundary between two, where a few samples changing sides move it.
func windowRatio(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	w := 5.0
	if p > 50 {
		w = (100 - p) / 4
	}
	s := sorted(xs)
	lo, hi := s[rank(len(s), p-w)], s[rank(len(s), p+w)]
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// frac is num/den, or 0 when den is 0.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
