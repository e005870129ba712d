package cauchy

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

func small(seed, base int64) *SampledSketch {
	return NewSampledSketch(rand.New(rand.NewSource(seed)), 4, 4, 4, base, 8)
}

// TestSameSeedSameBytes: equal seed and equal update sequence leave
// equal bytes once both live levels sample — per item, per column
// batch, and through a marshal and restore in mid-stream; base 4 and 16
// cross at least three window moves in 6000 updates, and multi-unit
// deltas cross them inside one update. Drawing inside a map range (the
// parent) fails this within a few thousand updates.
func TestSameSeedSameBytes(t *testing.T) {
	for _, base := range []int64{4, 16} {
		for _, multi := range []bool{false, true} {
			us := wiretest.SignedUnits(6000, multi)
			run := func(mode string) *SampledSketch {
				s := small(7, base)
				for off := 0; off < len(us); off += 500 {
					chunk := us[off : off+500]
					if mode == "columns" {
						core.UpdateBatch(s.UpdateColumns, chunk)
					} else {
						for _, u := range chunk {
							s.Update(u.Index, u.Delta)
						}
					}
					if mode == "restored" && off == 2500 {
						s = wiretest.Restore(t, small(7, base), wiretest.MustMarshal(t, s))
					}
				}
				return s
			}
			name := fmt.Sprintf("base %d multi=%v", base, multi)
			item := run("item")
			want := wiretest.MustMarshal(t, item)
			if js := wiretest.LiveSet(item.win.Each); len(js) != 2 || js[0] < 1 {
				t.Fatalf("%s: live levels %v; the test must end with two sampled levels", name, js)
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
			// A restore reseeds the rng, so counters may differ from the
			// never-marshalled run; position and schedule may not.
			if restored.t != item.t || fmt.Sprint(wiretest.LiveSet(restored.win.Each)) != fmt.Sprint(wiretest.LiveSet(item.win.Each)) {
				t.Fatalf("%s: restored in mid-stream is at t=%d with levels %v, never marshalled t=%d %v",
					name, restored.t, wiretest.LiveSet(restored.win.Each), item.t, wiretest.LiveSet(item.win.Each))
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
		whole.Update(u.Index, u.Delta)
		cut.Update(u.Index, u.Delta)
		if i == 1234 {
			cut = wiretest.Restore(t, small(3, 1<<30), wiretest.MustMarshal(t, cut))
		}
	}
	if !bytes.Equal(wiretest.MustMarshal(t, cut), wiretest.MustMarshal(t, whole)) {
		t.Fatal("restored-in-mid-stream bytes differ from the never-marshalled run")
	}
}

// TestSampledSketchMergeTwoSampledLevels: past the rate-one regime a
// merge adds the levels live in both, keeps the ones live in one, and
// re-syncs at the combined position; it is deterministic and commutes.
func TestSampledSketchMergeTwoSampledLevels(t *testing.T) {
	const base = 4
	build := func(units int) *SampledSketch {
		s := small(11, base)
		for _, u := range wiretest.SignedUnits(units, false) {
			s.Update(u.Index, u.Delta)
		}
		return s
	}
	for _, tc := range []struct{ na, nb int }{{100, 100}, {200, 900}, {900, 70}, {3, 5000}} {
		a, b := build(tc.na), build(tc.nb)
		sums := map[int][]int64{}
		for _, s := range []*SampledSketch{a, b} {
			for j, lv := range s.win.Each {
				if sums[j] == nil {
					sums[j] = make([]int64, len(lv.y))
				}
				for i, v := range lv.y {
					sums[j][i] += v
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
		lo, hi := sample.ActiveLevels(int64(tc.na+tc.nb), base)
		if got, want := fmt.Sprint(wiretest.LiveSet(ab.win.Each)), fmt.Sprint([]int{lo, hi}); got != want {
			t.Fatalf("%d+%d units: merged window %s, schedule at the combined position %s", tc.na, tc.nb, got, want)
		}
		for j, lv := range ab.win.Each {
			want := sums[j]
			if want == nil {
				want = make([]int64, len(lv.y)) // opened by the merge's re-sync
			}
			if fmt.Sprint(lv.y) != fmt.Sprint(want) {
				t.Fatalf("%d+%d units: level %d rows %v, inputs sum to %v", tc.na, tc.nb, j, lv.y, want)
			}
		}
		if !bytes.Equal(wiretest.MustMarshal(t, ab), wiretest.MustMarshal(t, ba)) {
			t.Fatalf("%d+%d units: a+b and b+a marshal differently", tc.na, tc.nb)
		}
		again := build(tc.na)
		if err := again.Merge(build(tc.nb)); err != nil {
			t.Fatal(err)
		}
		twice := build(tc.na)
		if err := twice.Merge(b); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 50; i++ {
			again.Update(i, 1)
			twice.Update(i, 1)
		}
		if !bytes.Equal(wiretest.MustMarshal(t, again), wiretest.MustMarshal(t, twice)) {
			t.Fatalf("%d+%d units: the same merge twice, then the same updates, marshals differently", tc.na, tc.nb)
		}
	}
}

// craft writes a small sketch's state — position, counter peak, level
// list — holding the given {level, fill} pairs in the given order at
// position pos: sets no ingest produces. Every row of a level holds its
// fill.
func craft(pos int64, levels ...[2]int64) []byte {
	w := wire.State(nil)
	w.I64(pos)
	w.I64(0)
	w.U32(uint32(len(levels)))
	for _, lv := range levels {
		rows := []int64{lv[1], lv[1], lv[1], lv[1]}
		w.U32(uint32(lv[0]))
		w.I64(1) // start
		w.FixedI64s(rows)
		w.FixedI64s(rows)
	}
	return w.Bytes()
}

// TestCraftedLevelLists: a level list that is not the schedule's set for
// its position restores as written, answers from its oldest level,
// re-marshals in ascending order, and is settled by the first update —
// survivors keep their rows, the rest are dropped or opened fresh.
func TestCraftedLevelLists(t *testing.T) {
	const base = 4
	for name, tc := range map[string]struct {
		pos       int64
		levels    [][2]int64
		canonical [][2]int64
	}{
		"non-adjacent, unordered": {100, [][2]int64{{5, 7e7}, {0, 9e7}}, [][2]int64{{0, 9e7}, {5, 7e7}}},
		"top level":               {100, [][2]int64{{62, 1e7}, {3, 4e7}}, [][2]int64{{3, 4e7}, {62, 1e7}}},
		"empty at a large t":      {1 << 40, nil, nil},
		"three levels":            {20, [][2]int64{{1, 5e7}, {2, 6e7}, {3, 7e7}}, [][2]int64{{1, 5e7}, {2, 6e7}, {3, 7e7}}},
	} {
		s := wiretest.Restore(t, small(1, base), craft(tc.pos, tc.levels...))
		if len(tc.levels) == 0 && s.Estimate() != 0 {
			t.Errorf("%s: estimate %v from no level", name, s.Estimate())
		}
		if j, _ := s.win.Oldest(); len(tc.levels) > 0 && int64(j) != tc.canonical[0][0] {
			t.Errorf("%s: answers from level %d, want the oldest listed, %d", name, j, tc.canonical[0][0])
		}
		if !bytes.Equal(wiretest.MustMarshal(t, s), craft(tc.pos, tc.canonical...)) {
			t.Errorf("%s: re-marshal is not the ascending encoding", name)
		}
		listed := map[int]int64{}
		for _, lv := range tc.levels {
			listed[int(lv[0])] = lv[1]
		}
		// Item 1's Cauchy entries at 8 fixed-point bits are far below 10^6.
		s.Update(1, 1)
		lo, hi := sample.ActiveLevels(tc.pos+1, base)
		if got, want := fmt.Sprint(wiretest.LiveSet(s.win.Each)), fmt.Sprint([]int{lo, hi}); got != want {
			t.Fatalf("%s: after one update the window is %s, schedule %s", name, got, want)
		}
		for j, lv := range s.win.Each {
			fill, survivor := listed[j]
			if !survivor && lv.start != tc.pos+1 {
				t.Errorf("%s: level %d opened at %d, want %d", name, j, lv.start, tc.pos+1)
			}
			for _, v := range lv.y {
				if d := v - fill; d < -1e6 || d > 1e6 {
					t.Errorf("%s: level %d row holds %d after one unit, listed fill %d", name, j, v, fill)
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
// and bulk-fed streams estimate inside TestSampledSketchAccuracy's band.
func TestHugeDeltasAreCheap(t *testing.T) {
	for _, d := range []int64{1 << 40, math.MinInt64 + 1} {
		s := NewSampledSketch(rand.New(rand.NewSource(1)), 192, 32, 6, 64, 10)
		start := time.Now()
		s.Update(5, d)
		s.Update(6, d)
		if el := time.Since(start); el > time.Second {
			t.Fatalf("two updates of %d took %v", d, el)
		}
		if want := sample.AddPos(stream.Abs64(d), stream.Abs64(d)); s.t != want {
			t.Fatalf("position %d after two updates of %d, want %d", s.t, d, want)
		}
	}
	// 64 items of 2^35 units each, a quarter of them half deleted again:
	// the answering level sampled about 2^11 of the 2^41 units.
	rng := rand.New(rand.NewSource(5))
	ok := 0
	const reps = 9
	for rep := 0; rep < reps; rep++ {
		s := NewSampledSketch(rng, 192, 32, 6, 64, 10)
		var want float64
		for i := uint64(0); i < 64; i++ {
			s.Update(i, 1<<35)
			want += 1 << 35
			if i%4 == 0 {
				s.Update(i, -(1 << 34))
				want -= 1 << 34
			}
		}
		if math.Abs(s.Estimate()-want) < 0.3*want {
			ok++
		}
	}
	if ok < reps*2/3 {
		t.Errorf("bulk-fed estimate within 30%% only %d/%d times", ok, reps)
	}
}
