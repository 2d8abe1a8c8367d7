package main

import (
	"math"
	"sort"
)

// Summary is a sample's median and 99th percentile (nearest rank),
// with the sample count and how many samples lie beyond the p99.
type Summary struct {
	N      int
	P50    float64
	P99    float64
	Beyond int
}

// Summarize sorts a copy of v and reads its percentiles.
func Summarize(v []float64) Summary {
	if len(v) == 0 {
		return Summary{P50: math.NaN(), P99: math.NaN()}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	r99 := rank(len(s), 0.99)
	return Summary{
		N:      len(s),
		P50:    s[rank(len(s), 0.50)],
		P99:    s[r99],
		Beyond: len(s) - 1 - r99,
	}
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(n-1, r))
}

// median of v (nearest rank); NaN when empty.
func median(v []float64) float64 { return Summarize(v).P50 }
