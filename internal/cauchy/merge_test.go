package cauchy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestSketchMergeBitForBit: dense Cauchy counters are linear integer
// sums, so same-seed split-stream sketches merge to exactly the
// single-stream counters and mass. (The peak is the widest value a
// counter held, which the sites' running sums need not share.)
func TestSketchMergeBitForBit(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 10, Items: 10000, Alpha: 4, Seed: 137})
	const seed = 139
	whole := NewSketch(rand.New(rand.NewSource(seed)), 32, 16, 4)
	a := NewSketch(rand.New(rand.NewSource(seed)), 32, 16, 4)
	b := NewSketch(rand.New(rand.NewSource(seed)), 32, 16, 4)
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
	if fmt.Sprint(a.lv.c) != fmt.Sprint(whole.lv.c) {
		t.Fatalf("merged counters %v, single-stream %v", a.lv.c, whole.lv.c)
	}
	if a.m != whole.m {
		t.Fatalf("mass: merged %d, single-stream %d", a.m, whole.m)
	}
}

// TestSketchMergeRejectsMismatches: sketches of other dimensions are
// refused. (Whether two sketches share a seed is their owner's Config
// check.)
func TestSketchMergeRejectsMismatches(t *testing.T) {
	a := NewSketch(rand.New(rand.NewSource(1)), 16, 8, 4)
	if err := a.Merge(NewSketch(rand.New(rand.NewSource(1)), 8, 8, 4)); err == nil {
		t.Fatal("merging different dims should fail")
	}
}

// TestSampledSketchMergeExactInRateOneRegime: below the interval base
// only level 0 exists and samples everything, so the merge is exact.
func TestSampledSketchMergeExactInRateOneRegime(t *testing.T) {
	const seed = 149
	const base = 1 << 30
	whole := NewSampledSketch(rand.New(rand.NewSource(seed)), 16, 8, 4, base, 10)
	a := NewSampledSketch(rand.New(rand.NewSource(seed)), 16, 8, 4, base, 10)
	b := NewSampledSketch(rand.New(rand.NewSource(seed)), 16, 8, 4, base, 10)
	for i := uint64(0); i < 500; i++ {
		d := int64(1 + i%3)
		whole.Update(i, d)
		if i%2 == 0 {
			a.Update(i, d)
		} else {
			b.Update(i, d)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.t != whole.t {
		t.Fatalf("position: merged %d, single-stream %d", a.t, whole.t)
	}
	ja, la := a.win.Oldest()
	jw, lw := whole.win.Oldest()
	if la == nil || lw == nil || ja != 0 || jw != 0 {
		t.Fatal("level 0 missing")
	}
	for j := range lw.c {
		if la.c[j] != lw.c[j] {
			t.Fatalf("level-0 counter %d: merged %d, single-stream %d", j, la.c[j], lw.c[j])
		}
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatalf("estimate: merged %v, single-stream %v", a.Estimate(), whole.Estimate())
	}
	if err := a.Merge(NewSampledSketch(rand.New(rand.NewSource(seed)), 16, 8, 4, base/2, 10)); err == nil {
		t.Fatal("merging different bases should fail")
	}
}

// TestSampledSketchMergedCountersCharged: two level-0 sketches holding
// 1000 of one key merge to counters twice as wide, charged as a sketch
// fed 2000 at once is charged.
func TestSampledSketchMergedCountersCharged(t *testing.T) {
	build := func() *SampledSketch { return NewSampledSketch(rand.New(rand.NewSource(7)), 16, 8, 4, 1<<30, 10) }
	a, b, whole := build(), build(), build()
	a.Update(5, 1000)
	b.Update(5, 1000)
	whole.Update(5, 2000)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.peak != whole.peak || a.SpaceBits() != whole.SpaceBits() {
		t.Fatalf("merged peak %d (%d bits), fed at once %d (%d bits)", a.peak, a.SpaceBits(), whole.peak, whole.SpaceBits())
	}
}
