package sweep

import (
	"math"
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
