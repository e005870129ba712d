package l1

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/nt"
)

// TestMergeExactInLevelZeroRegime: with an interval base far above the
// combined stream length only level 0 is ever live, its (c+, c-) pair
// counts units exactly, and merging split streams reproduces the
// single-stream counters bit for bit (exact clock keeps the schedule
// deterministic).
func TestMergeExactInLevelZeroRegime(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 256, Items: 5000, Alpha: 2, Seed: 127})
	const base = 1 << 30
	whole := NewExactClock(rand.New(rand.NewSource(1)), base)
	a := NewExactClock(rand.New(rand.NewSource(2)), base)
	b := NewExactClock(rand.New(rand.NewSource(3)), base)
	for _, u := range s.Updates {
		whole.Update(u.Index, u.Delta)
		if u.Index%2 == 0 {
			a.Update(u.Index, u.Delta)
		} else {
			b.Update(u.Index, u.Delta)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Units() != whole.Units() {
		t.Fatalf("units: merged %d, single-stream %d", a.Units(), whole.Units())
	}
	ja, la := a.win.Oldest()
	jw, lw := whole.win.Oldest()
	if la == nil || lw == nil || ja != 0 || jw != 0 {
		t.Fatal("level 0 missing; base too small for the exact-regime test")
	}
	if la.pos != lw.pos || la.neg != lw.neg {
		t.Fatalf("level-0 counters: merged (%d,%d), single-stream (%d,%d)", la.pos, la.neg, lw.pos, lw.neg)
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatalf("estimate: merged %v, single-stream %v", a.Estimate(), whole.Estimate())
	}
}

// TestMergeMorrisClockStaysAccurate: with the randomized Morris clock
// the merge is statistical; the merged estimate must stay within the
// estimator's envelope of the truth across repetitions.
func TestMergeMorrisClockStaysAccurate(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 512, Items: 100000, Alpha: 2, Seed: 131})
	want := float64(s.Materialize().L1())
	good := 0
	const reps = 11
	for rep := 0; rep < reps; rep++ {
		a := New(rand.New(rand.NewSource(int64(200+rep))), 64)
		b := New(rand.New(rand.NewSource(int64(300+rep))), 64)
		for _, u := range s.Updates {
			if u.Index%2 == 0 {
				a.Update(u.Index, u.Delta)
			} else {
				b.Update(u.Index, u.Delta)
			}
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Estimate()-want) < 0.35*want {
			good++
		}
	}
	if good < reps*2/3 {
		t.Fatalf("merged Morris-clock estimate within 35%% only %d/%d times", good, reps)
	}
}

// TestMergeRejectsMismatchedBase.
func TestMergeRejectsMismatchedBase(t *testing.T) {
	a := New(rand.New(rand.NewSource(1)), 64)
	if err := a.Merge(New(rand.New(rand.NewSource(1)), 128)); err == nil {
		t.Fatal("merging different interval bases should fail")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merging nil should fail")
	}
}

// TestCloneIsolated: the clone's clock and levels are private copies.
func TestCloneIsolated(t *testing.T) {
	a := NewExactClock(rand.New(rand.NewSource(5)), 1<<20)
	for i := 0; i < 100; i++ {
		a.Update(uint64(i), 1)
	}
	c := a.CloneInto(nil)
	for i := 0; i < 500; i++ {
		c.Update(uint64(i), 1)
	}
	if a.Units() != 100 {
		t.Fatalf("original units %d after clone mutation, want 100", a.Units())
	}
	if c.Units() != 600 {
		t.Fatalf("clone units %d, want 600", c.Units())
	}
}

// TestMergedCountersCharged: two level-0 estimators at 1000 units merge
// to a 2000 counter, and SpaceBits charges its width — the merged
// high-water mark, not the larger input's.
func TestMergedCountersCharged(t *testing.T) {
	for name, build := range map[string]func(*rand.Rand, int64) *AlphaEstimator{"morris": New, "exact": NewExactClock} {
		a, b, whole := build(rand.New(rand.NewSource(1)), 1<<20), build(rand.New(rand.NewSource(2)), 1<<20), build(rand.New(rand.NewSource(3)), 1<<20)
		a.Update(0, 1000)
		b.Update(1, 1000)
		whole.Update(0, 2000)
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if _, lv := a.win.Oldest(); lv.pos != 2000 || a.maxCount != 2000 {
			t.Fatalf("%s: merged level 0 holds %d, maxCount %d; want 2000 for both", name, lv.pos, a.maxCount)
		}
		beside := func(e *AlphaEstimator) int64 { // SpaceBits less the clock's
			if e.clock.m != nil {
				return e.SpaceBits() - e.clock.m.SpaceBits()
			}
			return e.SpaceBits() - int64(nt.BitsFor(uint64(e.clock.t)))
		}
		if beside(a) != beside(whole) {
			t.Fatalf("%s: the merged estimator charges %d bits beside its clock, one fed 2000 units %d", name, beside(a), beside(whole))
		}
	}
}
