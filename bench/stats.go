package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): with fewer, the figure is one outlier's latency,
// not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// and how many samples lie strictly beyond it. sorted must be ascending
// and non-empty.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], len(sorted) - 1 - idx
}

// tailSupported reports whether n samples carry a p-quantile with at
// least minBeyond samples beyond it. p99 needs n >= 1100 under
// nearest-rank (ceil(0.99*1100) = 1089, leaving 11 beyond).
func tailSupported(n int, p float64) bool {
	if n == 0 {
		return false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	return n-1-idx >= minBeyond
}

// medianInt64 sorts v in place and returns its median (0 when empty).
func medianInt64(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	m, _ := percentile(v, 0.5)
	return m
}

// median returns the median of vals (mean of the middle pair when even),
// leaving vals untouched. Empty input yields 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vals exactly as
// Python's statistics.quantiles(vals, n=4) (the default "exclusive"
// method) does — the acceptance driver computes spreads that way, so
// -compare must agree with it digit for digit. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against. Fewer than two
// values, or a zero median, have no spread.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}
