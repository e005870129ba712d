package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of x.
func sorted(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of x (the mean of the two middle
// values when len(x) is even), or 0 for an empty sample.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sorted(x)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample, or 0 for an empty one.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailRanks are the percentiles a timing may report beyond its median.
var tailRanks = []float64{0.9, 0.99, 0.999, 0.9999}

// tailRank returns the highest percentile that has at least ten of the
// n samples beyond it; ok is false when even p90 has fewer.
func tailRank(n int) (q float64, ok bool) {
	for _, r := range tailRanks {
		if float64(n)*(1-r) >= 10-1e-9 {
			q, ok = r, true
		}
	}
	return q, ok
}

// summary is how a timing is reported: the median, the highest
// percentile the sample supports, and the sample count.
type summary struct {
	N     int
	P50   float64
	P99   float64 // informational: printed even when fewer than ten samples lie beyond it
	TailQ float64 // 0 when the sample supports no tail percentile
	Tail  float64
}

func summarize(x []float64) summary {
	s := sorted(x)
	out := summary{N: len(s), P50: median(s), P99: percentile(s, 0.99)}
	if q, ok := tailRank(len(s)); ok {
		out.TailQ, out.Tail = q, percentile(s, q)
	}
	return out
}

// quartiles returns the three cut points Python's
// statistics.quantiles(x, n=4) gives (the exclusive method) — the
// definition the spread rule of this benchmark is stated in. It needs
// at least two values.
func quartiles(x []float64) (q1, q2, q3 float64) {
	s := sorted(x)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(x)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// sampleExponent predicts the CSSS sampling exponent p of a sketch with
// sample budget s after mass unit updates: the structure halves each
// time its position reaches s*2^r + 1 for r = 1, 2, ...
func sampleExponent(mass, s int64) int {
	p := 0
	for next := 2*s + 1; mass >= next; next = 2*next - 1 {
		p++
	}
	return p
}
