package l0

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// sensorStream synthesizes the clustered-sensor workload the paper's
// introduction motivates: F0 distinct identities appear, and all but
// F0/alpha of them are deleted back to zero, leaving L0 = F0/alpha.
func sensorStream(rng *rand.Rand, n uint64, f0 int, alpha float64) (*stream.Stream, stream.Vector) {
	s := &stream.Stream{N: n}
	ids := make(map[uint64]bool, f0)
	for len(ids) < f0 {
		ids[uint64(rng.Int63n(int64(n)))] = true
	}
	all := make([]uint64, 0, f0)
	for id := range ids {
		all = append(all, id)
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: 1 + rng.Int63n(3)})
	}
	// Delete all mass from a (1 - 1/alpha) fraction.
	kill := int(float64(f0) * (1 - 1/alpha))
	v := s.Materialize()
	for i := 0; i < kill; i++ {
		id := all[i]
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: -v[id]})
	}
	return s, s.Materialize()
}

func TestExactSmallCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewExactSmall(rng, 50)
	for i := uint64(0); i < 30; i++ {
		e.Update(i, 2)
	}
	for i := uint64(0); i < 10; i++ {
		e.Update(i, -2)
	}
	n, ok := e.Count()
	if !ok || n != 20 {
		t.Errorf("Count = %d, %v; want 20, true", n, ok)
	}
	if e.CountSaturating() != 20 {
		t.Errorf("CountSaturating = %d", e.CountSaturating())
	}
}

func TestExactSmallOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewExactSmall(rng, 10)
	for i := uint64(0); i < 100; i++ {
		e.Update(i, 1)
	}
	if _, ok := e.Count(); ok {
		t.Error("expected LARGE after 100 items with c=10")
	}
	if e.CountSaturating() != 11 {
		t.Errorf("CountSaturating = %d, want c+1 = 11", e.CountSaturating())
	}
}

func TestExactSmallDeletionsToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewExactSmall(rng, 20)
	for i := uint64(0); i < 15; i++ {
		e.Update(i, 5)
		e.Update(i, -5)
	}
	n, ok := e.Count()
	if !ok || n != 0 {
		t.Errorf("Count = %d, %v after full cancellation", n, ok)
	}
}

func TestRoughF0Monotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRoughF0(rng, 16)
	prev := int64(0)
	for i := uint64(0); i < 50000; i++ {
		r.Update(i)
		if e := r.Estimate(); e < prev {
			t.Fatalf("estimate decreased %d -> %d", prev, e)
		} else {
			prev = e
		}
	}
}

func TestRoughF0ConstantFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f0 := range []int{100, 1000, 10000} {
		good := 0
		const reps = 20
		for rep := 0; rep < reps; rep++ {
			r := NewRoughF0(rng, 16)
			for i := 0; i < f0; i++ {
				id := rng.Uint64()
				// touch each id a few times; F0 counts distinct only
				r.Update(id)
				r.Update(id)
			}
			e := r.Estimate()
			if e >= int64(f0) && e <= int64(64*f0) {
				good++
			}
		}
		if good < reps*4/5 {
			t.Errorf("F0=%d: estimate in [F0, 64*F0] only %d/%d times", f0, good, reps)
		}
	}
}

func TestRoughL0ConstantFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, v := sensorStream(rng, 1<<20, 8000, 4)
	want := v.L0()
	good := 0
	const reps = 15
	for rep := 0; rep < reps; rep++ {
		r := NewRoughL0(rng, 1<<20)
		for _, u := range s.Updates {
			r.Update(0, u.Index, u.Delta)
		}
		e := r.Estimate()
		if e >= want && e <= 110*want {
			good++
		}
	}
	if good < reps*3/4 {
		t.Errorf("RoughL0 in [L0, 110 L0] only %d/%d times (L0=%d)", good, reps, want)
	}
}

func TestRoughL0WindowedMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, v := sensorStream(rng, 1<<20, 6000, 4)
	want := v.L0()
	good := 0
	const reps = 15
	for rep := 0; rep < reps; rep++ {
		r := newSolo(rng, 1<<20, true, 12)
		for _, u := range s.Updates {
			r.Update(u.Index, u.Delta)
		}
		if r.LiveLevels() > 2*12+2 {
			t.Fatalf("windowed variant keeps %d levels", r.LiveLevels())
		}
		e := r.Estimate()
		if e >= want && e <= 110*want {
			good++
		}
	}
	if good < reps*3/4 {
		t.Errorf("windowed RoughL0 in range only %d/%d times (L0=%d)", good, reps, want)
	}
}

func TestRoughL0WindowedFewerLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	full := NewRoughL0(rng, 1<<30)
	win := newSolo(rng, 1<<30, true, 6)
	for i := uint64(0); i < 1000; i++ {
		full.Update(0, i, 1)
		win.Update(i, 1)
	}
	if win.LiveLevels() >= full.LiveLevels() {
		t.Errorf("windowed levels %d >= full levels %d", win.LiveLevels(), full.LiveLevels())
	}
}

func TestEstimatorExactSmallPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := NewEstimator(rng, Params{N: 1 << 20, Eps: 0.25})
	for i := uint64(0); i < 40; i++ {
		e.Update(i, 3)
	}
	for i := uint64(0); i < 10; i++ {
		e.Update(i, -3)
	}
	if got := e.Estimate(); got != 30 {
		t.Errorf("small-path estimate = %v, want exactly 30", got)
	}
}

// TestKNWEstimatorAccuracy reproduces Theorem 9 at laptop scale: the
// Figure 6 estimator is within (1 +- eps') of L0 for most seeds, where
// eps' reflects K and the rough-estimate constants.
func TestKNWEstimatorAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s, v := sensorStream(rng, 1<<20, 20000, 4)
	want := float64(v.L0())
	good := 0
	const reps = 12
	for rep := 0; rep < reps; rep++ {
		e := NewEstimator(rng, Params{N: 1 << 20, Eps: 0.1})
		for _, u := range s.Updates {
			e.Update(u.Index, u.Delta)
		}
		got := e.Estimate()
		if math.Abs(got-want) < 0.35*want {
			good++
		}
	}
	if good < reps*2/3 {
		t.Errorf("Figure 6 estimate within 35%% only %d/%d times (L0=%.0f)", good, reps, want)
	}
}

// TestAlphaEstimatorAccuracy reproduces Theorem 10: the windowed
// Figure 7 estimator matches the baseline's accuracy on alpha-property
// streams while maintaining only O(log(alpha/eps)) rows.
func TestAlphaEstimatorAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alpha = 4.0
	s, v := sensorStream(rng, 1<<20, 20000, alpha)
	want := float64(v.L0())
	good := 0
	const reps = 12
	win := RecommendedWindow(alpha, 0.1)
	for rep := 0; rep < reps; rep++ {
		e := NewEstimator(rng, Params{N: 1 << 20, Eps: 0.1, Windowed: true, Window: win})
		for _, u := range s.Updates {
			e.Update(u.Index, u.Delta)
		}
		got := e.Estimate()
		if math.Abs(got-want) < 0.35*want {
			good++
		}
		if e.LiveRows() > 2*win+2 {
			t.Fatalf("windowed estimator keeps %d rows (window %d)", e.LiveRows(), win)
		}
	}
	if good < reps*2/3 {
		t.Errorf("Figure 7 estimate within 35%% only %d/%d times (L0=%.0f)", good, reps, want)
	}
}

// TestWindowedFewerRowsThanFull: Figure 7's row saving on a large
// universe.
func TestWindowedFewerRowsThanFull(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	full := NewEstimator(rng, Params{N: 1 << 40, Eps: 0.2})
	win := NewEstimator(rng, Params{N: 1 << 40, Eps: 0.2, Windowed: true, Window: 8})
	for i := uint64(0); i < 5000; i++ {
		full.Update(i, 1)
		win.Update(i, 1)
	}
	if win.LiveRows() >= full.LiveRows() {
		t.Errorf("windowed rows %d >= full rows %d", win.LiveRows(), full.LiveRows())
	}
	if win.SpaceBits() >= full.SpaceBits() {
		t.Errorf("windowed space %d >= full space %d", win.SpaceBits(), full.SpaceBits())
	}
}

func TestInvertOccupancy(t *testing.T) {
	// Round-trip: A balls -> E[T] -> invert recovers A.
	for _, k := range []int{64, 256} {
		for _, a := range []int{1, 10, k / 4, k / 2} {
			expT := float64(k) * (1 - math.Pow(1-1/float64(k), float64(a)))
			got := invertOccupancy(int(math.Round(expT)), k)
			if math.Abs(got-float64(a)) > 0.1*float64(a)+1.5 {
				t.Errorf("k=%d A=%d: inverted %f", k, a, got)
			}
		}
	}
	if invertOccupancy(0, 64) != 0 {
		t.Error("T=0 should invert to 0")
	}
	if v := invertOccupancy(64, 64); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("T=K must be clamped, got %v", v)
	}
}

func TestEstimatorZeroStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := NewEstimator(rng, Params{N: 1 << 16, Eps: 0.25})
	if got := e.Estimate(); got != 0 {
		t.Errorf("empty stream estimate = %v", got)
	}
}

func TestEstimatorFullCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e := NewEstimator(rng, Params{N: 1 << 16, Eps: 0.25})
	for i := uint64(0); i < 50; i++ {
		e.Update(i, 7)
	}
	for i := uint64(0); i < 50; i++ {
		e.Update(i, -7)
	}
	if got := e.Estimate(); got != 0 {
		t.Errorf("cancelled stream estimate = %v, want 0", got)
	}
}

func TestRecommendedWindow(t *testing.T) {
	if RecommendedWindow(4, 0.1) <= RecommendedWindow(1, 0.5) {
		t.Error("window should grow with alpha and 1/eps")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RecommendedWindow(2, 0)
}

func TestParamsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad eps")
		}
	}()
	NewEstimator(rand.New(rand.NewSource(15)), Params{N: 100, Eps: 2})
}

func BenchmarkEstimatorUpdateFull(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	e := NewEstimator(rng, Params{N: 1 << 30, Eps: 0.1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Update(uint64(i), 1)
	}
}

func BenchmarkEstimatorUpdateWindowed(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	e := NewEstimator(rng, Params{N: 1 << 30, Eps: 0.1, Windowed: true, Window: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Update(uint64(i), 1)
	}
}
