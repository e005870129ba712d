package sweep

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTailMatchesDirectSums: Bin(n, p) tails against sums of the
// probability mass written out by hand.
func TestTailMatchesDirectSums(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		p    float64
		want float64
	}{
		{4, 0, 0.3, 1},
		{4, 5, 0.3, 0},
		{4, 4, 0.5, 1.0 / 16},
		{4, 3, 0.5, 5.0 / 16},
		{3, 1, 0.1, 1 - 0.9*0.9*0.9},
		{10, 1, 0, 0},
		{10, 0, 0, 1},
		{200, 190, 0.5, 0},
	} {
		if got := Tail(tc.n, tc.k, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Tail(%d, %d, %v) = %v, want %v", tc.n, tc.k, tc.p, got, tc.want)
		}
	}
}

// TestThresholdIsTheFirstRareCount: the count Threshold returns is rare
// at the alarm rate and the one below it is not.
func TestThresholdIsTheFirstRareCount(t *testing.T) {
	for _, n := range []int{0, 1, 30, 64, 200} {
		for _, p := range []float64{0.01, 0.1, 0.5} {
			k := Threshold(n, p, 1e-3)
			if k <= n && Tail(n, k, p) > 1e-3 || k > 0 && Tail(n, k-1, p) <= 1e-3 {
				t.Errorf("Threshold(%d, %v) = %d: tails %v at k, %v below it", n, p, k, Tail(n, k, p), Tail(n, k-1, p))
			}
		}
	}
	if k := Threshold(3, 0.5, 1e-3); k != 4 {
		t.Errorf("three fair coins never reach a 1e-3 tail, yet Threshold = %d", k)
	}
}

// TestSeparable: equal or close counts stay together, a one-sided pile
// of failures does not, and the decision is symmetric.
func TestSeparable(t *testing.T) {
	for _, tc := range []struct {
		a, b int
		want bool
	}{
		{0, 0, false}, {3, 5, false}, {10, 20, false}, {0, 9, false},
		{0, 12, true}, {2, 25, true}, {40, 10, true},
	} {
		if got := Separable(tc.a, tc.b, 1e-3); got != tc.want || Separable(tc.b, tc.a, 1e-3) != got {
			t.Errorf("Separable(%d, %d) = %v, want %v both ways", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestSweepReportsFailingSeedsInOrder.
func TestSweepReportsFailingSeedsInOrder(t *testing.T) {
	var ran []int64
	failed := Sweep(Seeds(10), func(s int64) bool {
		ran = append(ran, s)
		return s%3 == 0
	})
	if !slices.Equal(ran, Seeds(10)) || !slices.Equal(failed, []int64{3, 6, 9}) {
		t.Fatalf("ran %v, failed %v", ran, failed)
	}
}

// binomialSample draws k values of Bin(10, 0.3), plus shift: a
// discrete law, so most draws tie with others.
func binomialSample(rng *rand.Rand, k int, shift float64) []float64 {
	xs := make([]float64, k)
	for i := range xs {
		for range 10 {
			if rng.Float64() < 0.3 {
				xs[i]++
			}
		}
		xs[i] += shift
	}
	return xs
}

// TestSameDistributionOnDiscreteLaws: two samples of one discrete law
// pass on every fixed seed, and a shift by one step fails on every one.
func TestSameDistributionOnDiscreteLaws(t *testing.T) {
	for _, seed := range Seeds(40) {
		rng := rand.New(rand.NewSource(seed))
		a, b := binomialSample(rng, 3000, 0), binomialSample(rng, 3000, 0)
		if !SameDistribution(a, b, 1e-3) {
			t.Errorf("seed %d: one law alarms (D = %.3f)", seed, ksDistance(a, b))
		}
		if c := binomialSample(rng, 300, 1); SameDistribution(a, c, 1e-3) {
			t.Errorf("seed %d: a one-step shift passes (D = %.3f)", seed, ksDistance(a, c))
		}
	}
}

// TestSameDistributionStepsPastTies: the CDFs are compared between
// distinct values only. Stepping one side through a tie before the
// other reads a gap the laws do not have: here 1/2 on identical
// samples, where D is 0.
func TestSameDistributionStepsPastTies(t *testing.T) {
	a := []float64{0, 0, 0, 1, 1, 1}
	b := []float64{1, 0, 1, 0, 1, 0}
	if d := ksDistance(a, b); d != 0 {
		t.Fatalf("identical tied samples: D = %v, want 0", d)
	}
	if d := ksDistance([]float64{0, 0, 1, 1}, []float64{0, 1, 1, 1}); d != 0.25 {
		t.Fatalf("D = %v, want 1/4 (the CDFs at 0 are 1/2 and 1/4)", d)
	}
	if d := ksDistance([]float64{0, 0}, []float64{2, 2, 2}); d != 1 {
		t.Fatalf("disjoint samples: D = %v, want 1", d)
	}
	if !SameDistribution(a, b, 1e-3) || !SameDistribution(nil, a, 1e-3) {
		t.Fatal("identical samples, or an empty side, alarm")
	}
}
