package l1

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// TestSameSeedSameBytes: equal seed and equal update sequence leave
// equal bytes, in the regime where two sampled levels are live and each
// draws per chunk — per item, per column batch, and through a marshal
// and restore in mid-stream; base 4 and 16 cross at least three window
// moves in 6000 units. Drawing inside a map range (the parent) fails
// this within a few thousand updates.
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
						if mode == "columns" {
							core.UpdateBatch(a.UpdateColumns, chunk)
						} else {
							for _, u := range chunk {
								a.Update(u.Index, u.Delta)
							}
						}
						if mode == "restored" && off == 2500 {
							a = wiretest.Restore[AlphaEstimator](t, wiretest.MustMarshal(t, a))
						}
					}
					return a
				}
				name := fmt.Sprintf("base %d %s multi=%v", base, clock, multi)
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
				// never-marshalled run; under the exact clock the schedule may not.
				if clock == "exact" && fmt.Sprint(wiretest.LiveSet(restored.win.Each)) != fmt.Sprint(wiretest.LiveSet(item.win.Each)) {
					t.Fatalf("%s: restored in mid-stream holds levels %v, never marshalled %v",
						name, wiretest.LiveSet(restored.win.Each), wiretest.LiveSet(item.win.Each))
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
			cut = wiretest.Restore[AlphaEstimator](t, wiretest.MustMarshal(t, cut))
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
	lo, hi := sample.ActiveLevels(m1.clock.Now(), base)
	if got, want := fmt.Sprint(wiretest.LiveSet(m1.win.Each)), fmt.Sprint([]int{lo, hi}); got != want {
		t.Fatalf("Morris merge: window %s, schedule at the merged clock %s", got, want)
	}
}

// craft encodes an exact-clock estimator at position pos holding the
// given levels in the given order — sets no ingest produces.
func craft(base, pos int64, levels ...[3]int64) []byte {
	w := wire.NewWriter(estimatorMagic, formatV1)
	w.I64(base)
	w.U8(clockExact)
	w.I64(pos)
	w.I64(pos)
	w.I64(0)
	w.I64(pos)
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
		a := wiretest.Restore[AlphaEstimator](t, craft(base, tc.pos, tc.levels...))
		if got := a.Estimate(); got != tc.estimate {
			t.Errorf("%s: estimate %v, want %v from the oldest listed level", name, got, tc.estimate)
		}
		if !bytes.Equal(wiretest.MustMarshal(t, a), craft(base, tc.pos, tc.canonical...)) {
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
		"duplicate level":  craft(base, 9, [3]int64{1, 0, 0}, [3]int64{1, 0, 0}),
		"level past 62":    craft(base, 9, [3]int64{63, 0, 0}),
		"negative counter": craft(base, 9, [3]int64{1, -1, 0}),
	} {
		if err := new(AlphaEstimator).UnmarshalBinary(data); err == nil {
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
		if name == "exact" && a.clock.Now() != math.MaxInt64 {
			t.Errorf("exact clock at %d after 2^64 units, want saturation", a.clock.Now())
		}
		if a.LiveLevels() != 2 {
			t.Errorf("%s: %d live levels", name, a.LiveLevels())
		}
	}
}

// TestUpdateColumnsLockstep holds the column loop to the per-item
// oracle batch by batch: equal encoded state AND an equal next rng word
// (so no draw was added, dropped or reordered), with levels 1 and 2
// live (small base), unit / multi-unit / zero / MinInt64 deltas mixed in
// one batch, Morris hits in mid-batch, a marshal-and-restore in
// mid-stream (the restored window is unsynced) and the exact-clock
// variant, which stays on the per-item loop.
func TestUpdateColumnsLockstep(t *testing.T) {
	builders := map[string]func(*rand.Rand, int64) *AlphaEstimator{"morris": New, "exact": NewExactClock}
	for _, base := range []int64{4, 16} {
		for clock, build := range builders {
			item, col := build(rand.New(rand.NewSource(9)), base), build(rand.New(rand.NewSource(9)), base)
			work := rand.New(rand.NewSource(base))
			hitMidBatch, sampledLevels := false, 0
			for round := 0; round < 80; round++ {
				us := make([]stream.Update, 1+work.Intn(400))
				for k := range us {
					d := int64(1)
					switch v := work.Intn(40); {
					case v == 0:
						d = 0
					case v == 1:
						d = math.MinInt64
					case v < 6:
						d = 2 + int64(work.Intn(30))
					}
					if work.Intn(5) == 0 {
						d = -d
					}
					us[k] = stream.Update{Index: uint64(k), Delta: d}
				}
				for k, u := range us {
					before := item.clock.Now()
					item.Update(u.Index, u.Delta)
					if clock == "morris" && stream.Abs64(u.Delta) == 1 && item.clock.Now() != before && k > 0 && k < len(us)-1 {
						hitMidBatch = true
					}
				}
				core.UpdateBatch(col.UpdateColumns, us)
				if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, col)) {
					t.Fatalf("base %d %s round %d: column state differs from per-item state", base, clock, round)
				}
				if item.rng.Get().Int63() != col.rng.Get().Int63() {
					t.Fatalf("base %d %s round %d: next rng word differs", base, clock, round)
				}
				if js := wiretest.LiveSet(item.win.Each); len(js) == 2 && js[0] >= 1 {
					sampledLevels = max(sampledLevels, js[1])
				}
				if round == 40 {
					item, col = wiretest.Restore[AlphaEstimator](t, wiretest.MustMarshal(t, item)), wiretest.Restore[AlphaEstimator](t, wiretest.MustMarshal(t, col))
				}
			}
			if sampledLevels < 2 {
				t.Fatalf("base %d %s: never had two sampled levels live", base, clock)
			}
			if clock == "morris" && !hitMidBatch {
				t.Fatalf("base %d: no Morris hit on a unit update in mid-batch", base)
			}
		}
	}
}
