package l1

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// TestSameSeedSameBytes: equal seed and equal calls leave equal bytes,
// per path, in the regime where two sampled levels are live and each
// draws per stretch — per item, per column batch, and through a marshal
// and restore in mid-stream; base 4 and 16 cross at least three window
// moves in 6000 updates. Drawing inside a map range fails this within a
// few thousand updates. The paths agree with each other in law, not in
// bytes (TestWalkMatchesPerUnitLaw).
func TestSameSeedSameBytes(t *testing.T) {
	builders := map[string]func(*rand.Rand, int64) *AlphaEstimator{"morris": New, "exact": NewExactClock}
	for _, base := range []int64{4, 16} {
		for clock, build := range builders {
			for _, multi := range []bool{false, true} {
				us := wiretest.SignedUnits(6000, multi)
				run := func(mode string) *AlphaEstimator {
					a := build(rand.New(rand.NewSource(7)), base)
					for off := 0; off < len(us); off += 500 {
						chunk := us[off : off+500]
						if mode == "item" {
							for _, u := range chunk {
								a.Update(u.Index, u.Delta)
							}
						} else {
							core.UpdateBatch(a.UpdateColumns, chunk)
						}
						if mode == "restored" && off == 2500 {
							a = wiretest.Restore(t, build(rand.New(rand.NewSource(7)), base), wiretest.MustMarshal(t, a))
						}
					}
					return a
				}
				name := fmt.Sprintf("base %d %s multi=%v", base, clock, multi)
				for _, mode := range []string{"item", "columns", "restored"} {
					first := run(mode)
					if js := wiretest.LiveSet(first.win.Each); len(js) != 2 || js[0] < 1 {
						t.Fatalf("%s %s: live levels %v; the test must end with two sampled levels", name, mode, js)
					}
					want := wiretest.MustMarshal(t, first)
					for rep := 0; rep < 3; rep++ {
						if !bytes.Equal(wiretest.MustMarshal(t, run(mode)), want) {
							t.Fatalf("%s: two same-seed %s runs marshal differently", name, mode)
						}
					}
					// Under the exact clock the schedule is the position's, whatever
					// the path and however the rng was reseeded.
					lo, hi := sample.ActiveLevels(first.clock.now(), base)
					if clock == "exact" && fmt.Sprint(wiretest.LiveSet(first.win.Each)) != fmt.Sprint([]int{lo, hi}) {
						t.Fatalf("%s %s: holds levels %v at position %d", name, mode, wiretest.LiveSet(first.win.Each), first.clock.now())
					}
				}
			}
		}
	}
}

// TestRestoreMidStreamExactInLevelZeroRegime: while only level 0 is
// live nothing is drawn, so a run restored in mid-stream ends at the
// never-marshalled run's bytes.
func TestRestoreMidStreamExactInLevelZeroRegime(t *testing.T) {
	us := wiretest.SignedUnits(4000, true)
	whole := NewExactClock(rand.New(rand.NewSource(3)), 1<<30)
	cut := NewExactClock(rand.New(rand.NewSource(3)), 1<<30)
	for i, u := range us {
		whole.Update(u.Index, u.Delta)
		cut.Update(u.Index, u.Delta)
		if i == 1234 {
			cut = wiretest.Restore(t, NewExactClock(rand.New(rand.NewSource(3)), 1<<30), wiretest.MustMarshal(t, cut))
		}
	}
	if !bytes.Equal(wiretest.MustMarshal(t, cut), wiretest.MustMarshal(t, whole)) {
		t.Fatal("restored-in-mid-stream bytes differ from the never-marshalled run")
	}
}

// TestMergeTwoSampledLevels: past the rate-one regime a merge adds the
// levels live in both, keeps the ones live in one, and re-syncs at the
// combined position; it is deterministic and commutes.
func TestMergeTwoSampledLevels(t *testing.T) {
	const base = 4
	build := func(seed int64, units int) *AlphaEstimator {
		a := NewExactClock(rand.New(rand.NewSource(seed)), base)
		for _, u := range wiretest.SignedUnits(units, false) {
			a.Update(u.Index, u.Delta)
		}
		return a
	}
	for _, tc := range []struct{ na, nb int }{{100, 100}, {200, 900}, {900, 70}, {3, 5000}} {
		a, b := build(1, tc.na), build(2, tc.nb)
		before := map[int]level{}
		for _, e := range []*AlphaEstimator{a, b} {
			for j, lv := range e.win.Each {
				before[j] = level{before[j].pos + lv.pos, before[j].neg + lv.neg}
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
			if *lv != before[j] {
				t.Fatalf("%d+%d units: level %d holds %+v, inputs sum to %+v", tc.na, tc.nb, j, *lv, before[j])
			}
		}
		if !bytes.Equal(wiretest.MustMarshal(t, ab), wiretest.MustMarshal(t, ba)) {
			t.Fatalf("%d+%d units: a+b and b+a marshal differently", tc.na, tc.nb)
		}
		again := build(1, tc.na)
		if err := again.Merge(build(2, tc.nb)); err != nil {
			t.Fatal(err)
		}
		twice := build(1, tc.na)
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
	// Under the Morris clock the window follows the merged clock.
	m1, m2 := New(rand.New(rand.NewSource(5)), base), New(rand.New(rand.NewSource(6)), base)
	m1.Update(0, 700)
	m2.Update(0, 9000)
	if err := m1.Merge(m2); err != nil {
		t.Fatal(err)
	}
	lo, hi := sample.ActiveLevels(m1.clock.now(), base)
	if got, want := fmt.Sprint(wiretest.LiveSet(m1.win.Each)), fmt.Sprint([]int{lo, hi}); got != want {
		t.Fatalf("Morris merge: window %s, schedule at the merged clock %s", got, want)
	}
}

// craft encodes an exact-clock estimator's state at position pos
// holding the given levels in the given order — sets no ingest produces
// — with maxCount their largest counter.
func craft(pos int64, levels ...[3]int64) []byte {
	var maxCount int64
	for _, lv := range levels {
		maxCount = max(maxCount, lv[1], lv[2])
	}
	return craftState(pos, maxCount, pos, levels...)
}

// craftState is craft with maxCount and the unit count as given.
func craftState(pos, maxCount, units int64, levels ...[3]int64) []byte {
	w := wire.State(nil)
	w.I64(pos)
	w.I64(pos)
	w.I64(maxCount)
	w.I64(units)
	w.U32(uint32(len(levels)))
	for _, lv := range levels {
		w.U32(uint32(lv[0]))
		w.I64(lv[1])
		w.I64(lv[2])
	}
	return w.Bytes()
}

// TestCraftedLevelLists: a level list that is not the schedule's set for
// its position restores as written, answers from its oldest level,
// re-marshals in ascending order, and is settled by the first update —
// survivors keep their counters, the rest are dropped or opened fresh.
func TestCraftedLevelLists(t *testing.T) {
	const base = 4
	for name, tc := range map[string]struct {
		pos       int64
		levels    [][3]int64
		canonical [][3]int64
		estimate  float64
	}{
		"non-adjacent, unordered": {100, [][3]int64{{5, 7, 1}, {0, 9, 2}}, [][3]int64{{0, 9, 2}, {5, 7, 1}}, 7},
		"top level":               {100, [][3]int64{{62, 1, 0}, {3, 4, 1}}, [][3]int64{{3, 4, 1}, {62, 1, 0}}, 3 * 64},
		"empty at a large t":      {1 << 40, nil, nil, 0},
		"three levels":            {20, [][3]int64{{1, 5, 0}, {2, 6, 0}, {3, 7, 0}}, [][3]int64{{1, 5, 0}, {2, 6, 0}, {3, 7, 0}}, 5 * 4},
	} {
		a := wiretest.Restore(t, NewExactClock(rand.New(rand.NewSource(1)), base), craft(tc.pos, tc.levels...))
		if got := a.Estimate(); got != tc.estimate {
			t.Errorf("%s: estimate %v, want %v from the oldest listed level", name, got, tc.estimate)
		}
		if !bytes.Equal(wiretest.MustMarshal(t, a), craft(tc.pos, tc.canonical...)) {
			t.Errorf("%s: re-marshal is not the ascending encoding", name)
		}
		listed := map[int][3]int64{}
		for _, lv := range tc.levels {
			listed[int(lv[0])] = lv
		}
		a.Update(1, 1)
		lo, hi := sample.ActiveLevels(tc.pos+1, base)
		if got, want := fmt.Sprint(wiretest.LiveSet(a.win.Each)), fmt.Sprint([]int{lo, hi}); got != want {
			t.Fatalf("%s: after one update the window is %s, schedule %s", name, got, want)
		}
		for j, lv := range a.win.Each {
			was := listed[j] // zero for a level the update opened
			if lv.pos < was[1] || lv.pos > was[1]+1 || lv.neg != was[2] {
				t.Errorf("%s: level %d holds (%d,%d) after one insertion, listed (%d,%d)", name, j, lv.pos, lv.neg, was[1], was[2])
			}
		}
	}
	for name, data := range map[string][]byte{
		"duplicate level":   craft(9, [3]int64{1, 0, 0}, [3]int64{1, 0, 0}),
		"level past 62":     craft(9, [3]int64{63, 0, 0}),
		"negative counter":  craft(9, [3]int64{1, -1, 0}),
		"negative maxCount": craftState(9, -1, 9, [3]int64{1, 0, 0}),
		"negative units":    craftState(9, 0, -1),
	} {
		if err := wire.Fill(data, NewExactClock(rand.New(rand.NewSource(1)), base)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHugeDeltasAreCheap: the chunked walk is logarithmic in |delta|
// under both clocks, and a saturated exact position keeps moving.
func TestHugeDeltasAreCheap(t *testing.T) {
	for name, a := range map[string]*AlphaEstimator{
		"morris": New(rand.New(rand.NewSource(1)), 64),
		"exact":  NewExactClock(rand.New(rand.NewSource(1)), 64),
	} {
		for _, d := range []int64{1 << 40, -(1 << 39), math.MaxInt64, math.MinInt64 + 1, math.MaxInt64} {
			a.Update(5, d)
		}
		if name == "exact" && a.clock.now() != math.MaxInt64 {
			t.Errorf("exact clock at %d after 2^64 units, want saturation", a.clock.now())
		}
		if a.LiveLevels() != 2 {
			t.Errorf("%s: %d live levels", name, a.LiveLevels())
		}
	}
}

// TestUnitUpdatesKeepParentBytes pins the scalar path: a loop of
// Update(i, ±1) makes one clock draw per unit and then one coin per
// sampled level, in ascending level order, as it did before the
// columnar walk shared its body. The digests were recorded on that
// per-unit body: base 4 and 16, both clocks, two sampled levels live at
// the end, with a marshal and restore in mid-stream.
func TestUnitUpdatesKeepParentBytes(t *testing.T) {
	builders := map[string]func(*rand.Rand, int64) *AlphaEstimator{"morris": New, "exact": NewExactClock}
	golden := map[string]string{
		"base 4 morris":  "cad55b48ed86b9ce804afc6e4aa6dabaa6007cd8a04bc61a98bc64afe27bc81c",
		"base 4 exact":   "ee9c47ba64568f1e5b3e77288a9f2180b8c742ddf95df0534c0ebc9f84d03f41",
		"base 16 morris": "65cdef93fd15cb81352e071f98822d6319ec446311623492f07da2a54ef19cb2",
		"base 16 exact":  "e7c6a8c784c716ad959acc890384cbee5b716bc31fd6c08971202ae0350a822f",
	}
	for _, base := range []int64{4, 16} {
		for clock, build := range builders {
			a := build(rand.New(rand.NewSource(7)), base)
			for k, u := range wiretest.SignedUnits(6000, false) {
				a.Update(u.Index, u.Delta)
				if k == 2999 {
					a = wiretest.Restore(t, build(rand.New(rand.NewSource(7)), base), wiretest.MustMarshal(t, a))
				}
			}
			name := fmt.Sprintf("base %d %s", base, clock)
			if js := wiretest.LiveSet(a.win.Each); len(js) != 2 || js[0] < 1 {
				t.Fatalf("%s: live levels %v; the pin must end with two sampled levels", name, js)
			}
			sum := sha256.Sum256(wiretest.MustMarshal(t, a))
			if got := hex.EncodeToString(sum[:]); got != golden[name] {
				t.Errorf("%s: per-unit Update bytes hash to %s, recorded %s", name, got, golden[name])
			}
		}
	}
}

// TestFillRaisesStaleMaxCount: a checkpoint whose maxCount is below its
// counters (merged before Merge folded them in) restores charged for
// the counters it holds, and re-marshals with the raised maxCount.
func TestFillRaisesStaleMaxCount(t *testing.T) {
	a := wiretest.Restore(t, NewExactClock(rand.New(rand.NewSource(1)), 1<<20), craftState(2000, 1000, 2000, [3]int64{0, 2000, 0}))
	if a.maxCount != 2000 || a.SpaceBits() != wiretest.Restore(t, NewExactClock(rand.New(rand.NewSource(1)), 1<<20), craft(2000, [3]int64{0, 2000, 0})).SpaceBits() {
		t.Fatalf("restored maxCount %d, SpaceBits %d: not raised to the level-0 counter 2000", a.maxCount, a.SpaceBits())
	}
	if !bytes.Equal(wiretest.MustMarshal(t, a), craft(2000, [3]int64{0, 2000, 0})) {
		t.Fatal("re-marshal does not carry the raised maxCount")
	}
}
