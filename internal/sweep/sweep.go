// Package sweep is the seed-sweep harness statistical tests share: a
// property that holds with some probability runs over a FIXED list of
// seeds, so CI stays deterministic, and its count of failures is judged
// against a binomial tail at a stated false-alarm rate rather than on
// one lucky or unlucky seed. A change that moves draws but should keep
// their law is judged by SameDistribution over such seeds.
package sweep

import (
	"math"
	"slices"
)

// Seeds returns the fixed seed list 1..n.
func Seeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// Sweep runs run once per seed, in order, and returns the seeds on which
// it reported a failure.
func Sweep(seeds []int64, run func(seed int64) (failed bool)) []int64 {
	var failed []int64
	for _, s := range seeds {
		if run(s) {
			failed = append(failed, s)
		}
	}
	return failed
}

// Tail returns P(X >= k) for X ~ Bin(n, p), 0 <= p < 1, summing the
// probability mass from k up (no cancellation in a small tail).
func Tail(n, k int, p float64) float64 {
	var tail float64
	mass := math.Pow(1-p, float64(n)) // P(X = 0)
	for j := 0; j <= n; j++ {
		if j >= k {
			tail += mass
		}
		mass *= float64(n-j) / float64(j+1) * p / (1 - p)
	}
	return min(tail, 1)
}

// Threshold returns the smallest count k with P(Bin(n, p) >= k) <= alarm:
// n runs that each fail with probability p reach k failures with
// probability at most alarm (n+1 when no count is that rare).
func Threshold(n int, p, alarm float64) int {
	k := 0
	for k <= n && Tail(n, k, p) > alarm {
		k++
	}
	return k
}

// Separable reports whether failure counts a and b, each over the same
// number of runs, tell two failure rates apart at false-alarm rate
// alarm. It tests how their sum m splits: under one rate each failure
// falls on either side with probability 1/2 — exactly for Poisson
// counts, and the hypergeometric split of two equal-size binomials is
// tighter still — so the split is separable when the larger count
// reaches the Bin(m, 1/2) threshold at alarm/2 (two-sided).
func Separable(a, b int, alarm float64) bool {
	return max(a, b) >= Threshold(a+b, 0.5, alarm/2)
}

// SameDistribution reports whether samples a and b pass a two-sample
// Kolmogorov–Smirnov test at false-alarm rate alarm: the largest gap D
// between their empirical CDFs stays within the asymptotic critical
// value sqrt(-ln(alarm/2)/2 · (n+m)/(n·m)). The CDFs are compared only
// between distinct values — both sides step past a tied value together
// — so discrete samples (counters, exponents) are judged on the law
// they share, and the test is conservative on them. An empty side
// passes.
func SameDistribution(a, b []float64, alarm float64) bool {
	n, m := float64(len(a)), float64(len(b))
	return ksDistance(a, b) <= math.Sqrt(-math.Log(alarm/2)/2*(n+m)/(n*m))
}

// ksDistance is the two-sample Kolmogorov–Smirnov statistic D.
func ksDistance(a, b []float64) float64 {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	var d float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}
