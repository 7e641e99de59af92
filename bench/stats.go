package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-quantile of xs, 0 < p < 1.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// tailLadder is the percentiles, in percent, a tail metric may downgrade
// through before it settles for the median.
var tailLadder = []int{99, 95, 90, 75}

// tailPercentile reports the highest percentile not above want that has at
// least ten samples beyond it, and its value: a p99 over 300 samples is three
// samples deep and reads as noise, so it downgrades to p95. The median is the
// floor however few samples there are.
func tailPercentile(xs []float64, want float64) (value, used float64) {
	for _, pct := range tailLadder {
		if p := float64(pct) / 100; p <= want && len(xs)*(100-pct)/100 >= 10 {
			return percentile(xs, p), p
		}
	}
	return median(xs), 0.50
}

// quartiles returns the cut points of Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method) — the rule the benchmark driver judges spread by.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
