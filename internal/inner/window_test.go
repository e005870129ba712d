package inner

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func small(seed, base int64) *Estimator {
	return New(rand.New(rand.NewSource(seed)), Params{N: 1 << 10, Eps: 0.25, Base: base, K: 4, Rows: 2})
}

// TestRestoreMidStreamExactInRateOneRegime: below the interval base
// nothing is drawn, so a run restored in mid-stream ends at the
// never-marshalled run's bytes.
func TestRestoreMidStreamExactInRateOneRegime(t *testing.T) {
	whole, cut := small(3, 1<<30), small(3, 1<<30)
	for i, u := range wiretest.SignedUnits(3000, true) {
		for _, e := range []*Estimator{whole, cut} {
			e.UpdateF(u.Index, u.Delta)
			e.UpdateG(u.Index+1, u.Delta)
		}
		if i == 1234 {
			cut = wiretest.Restore(t, small(3, 1<<30), wiretest.MustMarshal(t, cut))
		}
	}
	if !bytes.Equal(wiretest.MustMarshal(t, cut), wiretest.MustMarshal(t, whole)) {
		t.Fatal("restored-in-mid-stream bytes differ from the never-marshalled run")
	}
}

// TestEstimatorMergeTwoSampledLevels: past the rate-one regime a merge
// adds the levels live in both, keeps the ones live in one, and re-syncs
// each side at its combined position; it is deterministic and commutes.
func TestEstimatorMergeTwoSampledLevels(t *testing.T) {
	const base = 4
	build := func(nf, ng int) *Estimator {
		e := small(11, base)
		for _, u := range wiretest.SignedUnits(nf, false) {
			e.UpdateF(u.Index, u.Delta)
		}
		for _, u := range wiretest.SignedUnits(ng, false) {
			e.UpdateG(u.Index, u.Delta)
		}
		return e
	}
	for _, tc := range []struct{ fa, ga, fb, gb int }{{100, 100, 100, 100}, {200, 900, 900, 70}, {3, 5000, 5000, 3}} {
		a, b := build(tc.fa, tc.ga), build(tc.fb, tc.gb)
		at := fmt.Sprintf("f %d+%d, g %d+%d units", tc.fa, tc.fb, tc.ga, tc.gb)
		sums := [2]map[int]int64{{}, {}}
		for _, e := range []*Estimator{a, b} {
			for s, sd := range []*side{e.f, e.g} {
				for j, lv := range sd.win.Each {
					sums[s][j] += lv.bins[e.params.K+2]
				}
			}
		}
		ab, ba := a.CloneInto(nil), b.CloneInto(nil)
		if err := ab.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := ba.Merge(a); err != nil {
			t.Fatal(err)
		}
		for s, sd := range []*side{ab.f, ab.g} {
			pos := int64([]int{tc.fa + tc.fb, tc.ga + tc.gb}[s])
			lo, hi := sample.ActiveLevels(pos, base)
			if got, want := fmt.Sprint(wiretest.LiveSet(sd.win.Each)), fmt.Sprint([]int{lo, hi}); got != want || sd.t != pos {
				t.Fatalf("%s: side %d merged window %s at %d, schedule at the combined position %d is %s", at, s, got, sd.t, pos, want)
			}
			for j, lv := range sd.win.Each {
				if got := lv.bins[ab.params.K+2]; got != sums[s][j] {
					t.Fatalf("%s: side %d level %d bin holds %d, inputs sum to %d", at, s, j, got, sums[s][j])
				}
			}
		}
		if !bytes.Equal(wiretest.MustMarshal(t, ab), wiretest.MustMarshal(t, ba)) {
			t.Fatalf("%s: a+b and b+a marshal differently", at)
		}
		again := build(tc.fa, tc.ga)
		if err := again.Merge(build(tc.fb, tc.gb)); err != nil {
			t.Fatal(err)
		}
		twice := build(tc.fa, tc.ga)
		if err := twice.Merge(b); err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Estimator{again, twice} {
			for i := uint64(0); i < 50; i++ {
				e.UpdateF(i, 1)
				e.UpdateG(i, 3)
			}
		}
		if !bytes.Equal(wiretest.MustMarshal(t, again), wiretest.MustMarshal(t, twice)) {
			t.Fatalf("%s: the same merge twice, then the same updates, marshals differently", at)
		}
	}
}

// craft writes a small estimator's state — both sides' position, bin
// peak and level list — so that each side sits at pos holding the given
// {level, fill} pairs in the given order: sets no ingest produces. Every
// bin of a level holds its fill.
func craft(pos int64, levels ...[2]int64) []byte {
	w := wire.State(nil)
	for side := 0; side < 2; side++ {
		w.I64(pos)
		w.I64(0)
		w.U32(uint32(len(levels)))
		for _, lv := range levels {
			w.U32(uint32(lv[0]))
			w.I64(1) // start
			bins := slices.Repeat([]int64{lv[1]}, 2*4)
			wire.WriteCounts(w, bins, wire.LayoutOf(bins))
		}
	}
	return w.Bytes()
}

// TestCraftedLevelLists: a level list that is not the schedule's set for
// its position restores as written, answers from its oldest level,
// re-marshals in ascending order, and is settled by the first update —
// survivors keep their bins, the rest are dropped or opened fresh.
func TestCraftedLevelLists(t *testing.T) {
	const base = 4
	for name, tc := range map[string]struct {
		pos       int64
		levels    [][2]int64
		canonical [][2]int64
	}{
		"non-adjacent, unordered": {100, [][2]int64{{5, 70}, {0, 90}}, [][2]int64{{0, 90}, {5, 70}}},
		"top level":               {100, [][2]int64{{62, 10}, {3, 40}}, [][2]int64{{3, 40}, {62, 10}}},
		"empty at a large t":      {1 << 40, nil, nil},
		"three levels":            {20, [][2]int64{{1, 50}, {2, 60}, {3, 70}}, [][2]int64{{1, 50}, {2, 60}, {3, 70}}},
	} {
		e := wiretest.Restore(t, small(1, base), craft(tc.pos, tc.levels...))
		if len(tc.levels) == 0 && e.Estimate() != 0 {
			t.Errorf("%s: estimate %v from no level", name, e.Estimate())
		}
		if len(tc.levels) > 0 {
			j, fill := float64(tc.canonical[0][0]), float64(tc.canonical[0][1])
			// <A, B> over K = 4 equal bins a row, both sides scaled by base^j.
			if want := math.Pow(base, 2*j) * 4 * fill * fill; e.Estimate() != want {
				t.Errorf("%s: estimate %v, want %v from the oldest listed level", name, e.Estimate(), want)
			}
		}
		if !bytes.Equal(wiretest.MustMarshal(t, e), craft(tc.pos, tc.canonical...)) {
			t.Errorf("%s: re-marshal is not the ascending encoding", name)
		}
		listed := map[int]int64{}
		for _, lv := range tc.levels {
			listed[int(lv[0])] = lv[1]
		}
		e.UpdateG(1, 1)
		if e.f.win.Len() != len(tc.levels) {
			t.Errorf("%s: an update of g moved f's window to %v", name, wiretest.LiveSet(e.f.win.Each))
		}
		lo, hi := sample.ActiveLevels(tc.pos+1, base)
		if got, want := fmt.Sprint(wiretest.LiveSet(e.g.win.Each)), fmt.Sprint([]int{lo, hi}); got != want {
			t.Fatalf("%s: after one update the window is %s, schedule %s", name, got, want)
		}
		for j, lv := range e.g.win.Each {
			fill, survivor := listed[j]
			if !survivor && lv.start != tc.pos+1 {
				t.Errorf("%s: level %d opened at %d, want %d", name, j, lv.start, tc.pos+1)
			}
			for _, v := range lv.bins {
				if v < fill-1 || v > fill+1 {
					t.Errorf("%s: level %d bin holds %d after one unit, listed fill %d", name, j, v, fill)
				}
			}
		}
	}
	for name, data := range map[string][]byte{
		"duplicate level": craft(9, [2]int64{1, 0}, [2]int64{1, 0}),
		"level past 62":   craft(9, [2]int64{63, 0}),
	} {
		if err := wire.Fill(data, small(1, base)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHugeDeltasAreCheap: one update of magnitude 2^40 or 2^63 - 1
// costs a draw per live level per window move, not |delta| iterations,
// and bulk-fed streams estimate inside TestSampledRegimeAccuracy's band.
func TestHugeDeltasAreCheap(t *testing.T) {
	for _, d := range []int64{1 << 40, math.MinInt64 + 1} {
		e := New(rand.New(rand.NewSource(1)), Params{N: 64, Eps: 0.2, Base: 64, Rows: 7})
		start := time.Now()
		e.UpdateF(5, d)
		e.UpdateF(6, d)
		e.UpdateG(5, d)
		if el := time.Since(start); el > time.Second {
			t.Fatalf("three updates of %d took %v", d, el)
		}
		if want := sample.AddPos(stream.Abs64(d), stream.Abs64(d)); e.f.t != want || e.g.t != stream.Abs64(d) {
			t.Fatalf("positions %d/%d after updates of %d, want %d/%d", e.f.t, e.g.t, d, want, stream.Abs64(d))
		}
	}
	// Two streams of 64 items at 2^34 units each plus one common item of
	// 2^43, a quarter of f's items half deleted again: the answering
	// levels sampled some 140 units a side, most of them the heavy item.
	rng := rand.New(rand.NewSource(2))
	good := 0
	const reps = 12
	for rep := 0; rep < reps; rep++ {
		e := New(rng, Params{N: 64, Eps: 0.2, Base: 64, Rows: 7})
		var f, g [64]float64
		for i := uint64(0); i < 64; i++ {
			d := int64(1) << 34
			if i == 7 {
				d = 1 << 43
			}
			e.UpdateF(i, d)
			e.UpdateG(i, d)
			f[i], g[i] = float64(d), float64(d)
			if i%4 == 0 {
				e.UpdateF(i, -d/2)
				f[i] /= 2
			}
		}
		var want, l1f, l1g float64
		for i := range f {
			want += f[i] * g[i]
			l1f += f[i]
			l1g += g[i]
		}
		if want < 0.7*l1f*l1g {
			t.Fatalf("<f,g> = %.3g is not the bulk of |f||g| = %.3g; the band would admit a zero answer", want, l1f*l1g)
		}
		if math.Abs(e.Estimate()-want) <= 0.35*l1f*l1g {
			good++
		}
	}
	if good < reps*2/3 {
		t.Errorf("bulk-fed estimate within budget only %d/%d times", good, reps)
	}
}

// TestMergedCountersCharged: two rate-one estimators holding 1000 of
// one key per side merge to bins twice as wide, charged as an estimator
// fed 2000 at once is charged.
func TestMergedCountersCharged(t *testing.T) {
	a, b, whole := small(5, 1<<20), small(5, 1<<20), small(5, 1<<20)
	for _, e := range []*Estimator{a, b} {
		e.UpdateF(5, 1000)
		e.UpdateG(6, -1000)
	}
	whole.UpdateF(5, 2000)
	whole.UpdateG(6, -2000)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.f.maxCount != whole.f.maxCount || a.g.maxCount != whole.g.maxCount || a.SpaceBits() != whole.SpaceBits() {
		t.Fatalf("merged maxCount %d/%d (%d bits), fed at once %d/%d (%d bits)",
			a.f.maxCount, a.g.maxCount, a.SpaceBits(), whole.f.maxCount, whole.g.maxCount, whole.SpaceBits())
	}
}
