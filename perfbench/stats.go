package main

import (
	"fmt"
	"slices"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile for it to be reported at all.
const minBeyond = 10

// percentile returns the nearest-rank num/den percentile of a sorted
// sample. It refuses a sample with fewer than minBeyond points beyond
// the percentile; the rank is integer arithmetic so that, for example,
// the p90 of 100 points is the 90th, with exactly ten beyond it.
func percentile(sorted []float64, num, den int) (float64, error) {
	n := len(sorted)
	rank := (num*n + den - 1) / den
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", 100*num/den, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
