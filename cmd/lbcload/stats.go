package main

import (
	"math"
	"sort"
)

// Timings are raw int64 nanosecond samples and exact order statistics:
// the program's log-linear histograms may overstate a quantile by a
// quarter, which is wider than the repeatability the bounds ask for.

// sorted returns the samples of every slice in one ascending slice.
func sorted(parts ...[]int64) []int64 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	all := make([]int64, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// percentile is the nearest-rank order statistic of ascending samples:
// the smallest value with at least q of the samples at or below it.
func percentile(asc []int64, q float64) int64 {
	if len(asc) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(asc)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(asc) {
		k = len(asc) - 1
	}
	return asc[k]
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }
func msec(ns int64) float64 { return float64(ns) / 1e6 }

// median of float samples (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianNS is the nearest-rank median of unsorted nanosecond samples.
func medianNS(ns []int64) int64 { return percentile(sorted(ns), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // quartile i of 4
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
