package main

import (
	"fmt"
	"slices"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs need not be sorted and is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), as perfbench/steady.py does when it checks spreads against
// BENCHMARK.json's bounds. xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// tailIndex is the rank, in an ascending sort of n samples, of the highest
// percentile with at least ten samples beyond it; with fewer than eleven
// samples it is the maximum.
func tailIndex(n int) int {
	return max(0, n-11)
}

// tailLabel names the percentile tailIndex selects, e.g. "p99.9" for 10000
// samples, and the number of samples beyond it.
func tailLabel(n int) (string, int) {
	i := tailIndex(n)
	return fmt.Sprintf("p%.6g", 100*float64(i+1)/float64(n)), n - 1 - i
}

// tailValue is the value at the tail percentile of tailIndex.
func tailValue(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[tailIndex(len(s))]
}
