package inner

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func small(seed, base int64) *Estimator {
	return New(rand.New(rand.NewSource(seed)), Params{N: 1 << 10, Eps: 0.25, Base: base, K: 4, Rows: 2})
}

// TestSameSeedSameBytes: equal seed and equal update sequence leave
// equal bytes once both live levels of a side sample — per item, per
// column batch, and through a marshal and restore in mid-stream, with f
// and g interleaved on the one shared rng; base 4 and 16 cross at least
// three window moves in 6000 updates per side. Drawing inside a map
// range (the parent) fails this within a few thousand updates.
func TestSameSeedSameBytes(t *testing.T) {
	for _, base := range []int64{4, 16} {
		for _, multi := range []bool{false, true} {
			us := wiretest.SignedUnits(6000, multi)
			run := func(mode string) *Estimator {
				e := small(7, base)
				for off := 0; off < len(us); off += 500 {
					chunk := us[off : off+500]
					if mode == "columns" {
						core.UpdateBatch(e.UpdateColumnsF, chunk)
						core.UpdateBatch(e.UpdateColumnsG, chunk[:250])
					} else {
						for _, u := range chunk {
							e.UpdateF(u.Index, u.Delta)
						}
						for _, u := range chunk[:250] {
							e.UpdateG(u.Index, u.Delta)
						}
					}
					if mode == "restored" && off == 2500 {
						e = wiretest.Restore[Estimator](t, wiretest.MustMarshal(t, e))
					}
				}
				return e
			}
			name := fmt.Sprintf("base %d multi=%v", base, multi)
			item := run("item")
			want := wiretest.MustMarshal(t, item)
			for _, sd := range []*side{item.f, item.g} {
				if js := wiretest.LiveSet(sd.win.Each); len(js) != 2 || js[0] < 1 {
					t.Fatalf("%s: live levels %v; the test must end with two sampled levels a side", name, js)
				}
			}
			for rep := 0; rep < 4; rep++ {
				if !bytes.Equal(wiretest.MustMarshal(t, run("item")), want) {
					t.Fatalf("%s: two same-seed per-item runs marshal differently", name)
				}
			}
			if !bytes.Equal(wiretest.MustMarshal(t, run("columns")), want) {
				t.Fatalf("%s: UpdateColumns state differs from per-item state", name)
			}
			restored := run("restored")
			if !bytes.Equal(wiretest.MustMarshal(t, run("restored")), wiretest.MustMarshal(t, restored)) {
				t.Fatalf("%s: two runs restored in mid-stream marshal differently", name)
			}
			// A restore reseeds the rng, so bins may differ from the
			// never-marshalled run; positions and schedules may not.
			if restored.f.t != item.f.t || restored.g.t != item.g.t ||
				fmt.Sprint(wiretest.LiveSet(restored.f.win.Each), wiretest.LiveSet(restored.g.win.Each)) != fmt.Sprint(wiretest.LiveSet(item.f.win.Each), wiretest.LiveSet(item.g.win.Each)) {
				t.Fatalf("%s: restored in mid-stream holds levels %v/%v, never marshalled %v/%v",
					name, wiretest.LiveSet(restored.f.win.Each), wiretest.LiveSet(restored.g.win.Each), wiretest.LiveSet(item.f.win.Each), wiretest.LiveSet(item.g.win.Each))
			}
		}
	}
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
			cut = wiretest.Restore[Estimator](t, wiretest.MustMarshal(t, cut))
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
					sums[s][j] += lv.bins[1][2]
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
				if lv.bins[1][2] != sums[s][j] {
					t.Fatalf("%s: side %d level %d bin holds %d, inputs sum to %d", at, s, j, lv.bins[1][2], sums[s][j])
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

// craft rewrites the tail of an empty estimator's encoding — both
// sides' position, bin peak and level list — so that each side sits at
// pos holding the given {level, fill} pairs in the given order: sets no
// ingest produces. Every bin of a level holds its fill.
func craft(t *testing.T, base, pos int64, levels ...[2]int64) []byte {
	data := wiretest.MustMarshal(t, small(1, base))
	w := wire.NewWriter(estimatorMagic, formatV1)
	for side := 0; side < 2; side++ {
		w.I64(pos)
		w.I64(0)
		w.U32(uint32(len(levels)))
		for _, lv := range levels {
			w.U32(uint32(lv[0]))
			w.I64(1) // start
			w.U32(2)
			for r := 0; r < 2; r++ {
				w.I64s([]int64{lv[1], lv[1], lv[1], lv[1]})
			}
		}
	}
	const emptyTail, header = 2 * (8 + 8 + 4), 3
	return append(data[:len(data)-emptyTail:len(data)-emptyTail], w.Bytes()[header:]...)
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
		e := wiretest.Restore[Estimator](t, craft(t, base, tc.pos, tc.levels...))
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
		if !bytes.Equal(wiretest.MustMarshal(t, e), craft(t, base, tc.pos, tc.canonical...)) {
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
			for _, row := range lv.bins {
				for _, v := range row {
					if v < fill-1 || v > fill+1 {
						t.Errorf("%s: level %d bin holds %d after one unit, listed fill %d", name, j, v, fill)
					}
				}
			}
		}
	}
	for name, data := range map[string][]byte{
		"duplicate level": craft(t, base, 9, [2]int64{1, 0}, [2]int64{1, 0}),
		"level past 62":   craft(t, base, 9, [2]int64{63, 0}),
	} {
		if err := new(Estimator).UnmarshalBinary(data); err == nil {
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
