package topk

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/csss"
	"repro/internal/sketch"
)

// estFunc is a Columnar whose "hash" is the key itself — two rows, its
// low and high 32 bits — and whose estimate is a per-id function, so a
// column that reaches the wrong slot reads the wrong id's estimate.
type estFunc func(uint64) float64

func (f estFunc) HashColumns(b *core.Batch, keys []uint64) ([]uint32, []int8) {
	n := len(keys)
	cols, signs := b.Cols32(2*n), b.Signs8(2*n)
	for j, k := range keys {
		cols[j], cols[n+j] = uint32(k), uint32(k>>32)
		signs[j], signs[n+j] = 1, 1
	}
	return cols, signs
}

func (f estFunc) EstimateHashed(cols []uint32, _ []int8, est []float64) {
	n := len(est)
	for j := range est {
		est[j] = f(uint64(cols[j]) | uint64(cols[n+j])<<32)
	}
}

// merge folds other into t through the k-way re-rank, with throwaway
// scratch.
func merge[E int64 | float64](t, other *Tracker, q Columnar[E]) error {
	var r Refresher[E]
	b := core.GetBatch()
	defer core.PutBatch(b)
	_, err := r.MergeAll(t, []*Tracker{t, other}, b, q)
	return err
}

// pairs returns t's (id, estimate) pairs sorted by id: its content,
// whatever its heap layout.
func pairs(t *Tracker) []entry {
	out := make([]entry, len(t.heap))
	for i, e := range t.heap {
		out[i] = entry{id: e.id, est: e.est}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// referenceMerge is the scalar merge the batched one replaced: the
// union re-offered one Query at a time.
func referenceMerge(t, other *Tracker, est func(uint64) float64) {
	ids := t.Candidates()
	ids = append(ids, other.Candidates()...)
	t.Reset()
	for _, id := range ids {
		t.Offer(id, est(id))
	}
}

// TestMergeMatchesReference: the batched merge keeps the (id,
// estimate) pairs the scalar loop kept and does not write other. The
// heap layouts differ: the scalar loop's follows its offer order, the
// re-rank's is built in an order that depends on the ids alone
// (TestMergeAllIndependentOfPartOrder).
func TestMergeMatchesReference(t *testing.T) {
	build := func(capacity int, ids []uint64, est func(uint64) float64) *Tracker {
		tr := New(capacity)
		for _, id := range ids {
			tr.Offer(id, est(id))
		}
		return tr
	}
	seq := func(lo, n uint64) []uint64 {
		ids := make([]uint64, n)
		for j := range ids {
			ids[j] = lo + uint64(j)*7
		}
		return ids
	}
	cs := csss.New(rand.New(rand.NewSource(11)), csss.Params{Rows: 7, K: 32, S: 1 << 20})
	dense := sketch.NewCountSketch(rand.New(rand.NewSource(12)), 5, 64)
	rng := rand.New(rand.NewSource(13))
	for j := 0; j < 4000; j++ {
		i, d := uint64(rng.Intn(300)), int64(rng.Intn(7)-2)
		cs.Update(i, d)
		dense.Update(i, d)
	}
	stale := func(i uint64) float64 { return float64(i % 5) } // what the sides held before the merge
	cases := []struct {
		name string
		a, b []uint64
		est  func(uint64) float64
	}{
		{"full trackers, disjoint", seq(0, 40), seq(3, 40), func(i uint64) float64 { return float64(i * 31 % 101) }},
		{"ids on both sides", seq(0, 30), seq(70, 30), func(i uint64) float64 { return float64(i * 17 % 53) }},
		{"negative and tied", seq(0, 25), seq(1, 25), func(i uint64) float64 { return float64(int64(i%4) - 2) }},
		{"empty other", seq(0, 12), nil, func(i uint64) float64 { return -float64(i) }},
		{"empty receiver", nil, seq(0, 12), func(i uint64) float64 { return float64(i) }},
		{"both empty", nil, nil, func(uint64) float64 { return 1 }},
	}
	for _, tc := range cases {
		want, got, other := build(10, tc.a, stale), build(10, tc.a, stale), build(10, tc.b, stale)
		before, _ := other.MarshalBinary()
		referenceMerge(want, other, tc.est)
		if err := merge(got, other, estFunc(tc.est)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(pairs(want), pairs(got)) {
			t.Fatalf("%s: batched merge kept %v, the scalar reference %v", tc.name, pairs(got), pairs(want))
		}
		if after, _ := other.MarshalBinary(); !bytes.Equal(before, after) {
			t.Fatalf("%s: merge wrote its argument", tc.name)
		}
	}
	// The two real backings: CSSS (float estimates; AlphaL1, the L1
	// sampler) and Count-Sketch (integer estimates; AlphaL2) — one
	// EstimateHashed call against per-id Query.
	for name, side := range map[string]struct {
		merge func(t, other *Tracker) error
		query func(uint64) float64
	}{
		"csss":         {func(t, other *Tracker) error { return merge(t, other, cs) }, cs.Query},
		"count-sketch": {func(t, other *Tracker) error { return merge(t, other, dense) }, func(i uint64) float64 { return float64(dense.Query(i)) }},
	} {
		want, got, other := build(10, seq(0, 40), stale), build(10, seq(0, 40), stale), build(10, seq(140, 40), stale)
		referenceMerge(want, other, side.query)
		if err := side.merge(got, other); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pairs(want), pairs(got)) {
			t.Fatalf("%s estimates: batched merge kept %v, the scalar reference %v", name, pairs(got), pairs(want))
		}
	}
}

// TestMergeKeepsTopOfUnion: after a merge the tracked set is the
// top-of-union under the supplied estimates, independent of which
// tracker held which item.
func TestMergeKeepsTopOfUnion(t *testing.T) {
	est := func(i uint64) float64 { return float64(i) }
	a := New(2) // retains up to 4 items (2x capacity)
	b := New(2)
	for _, i := range []uint64{1, 5, 9, 3} {
		a.Offer(i, est(i))
	}
	for _, i := range []uint64{2, 8, 7, 4} {
		b.Offer(i, est(i))
	}
	if err := merge(a, b, estFunc(est)); err != nil {
		t.Fatal(err)
	}
	got := a.Candidates()
	sort.Slice(got, func(x, y int) bool { return got[x] < got[y] })
	want := []uint64{5, 7, 8, 9} // top 4 of the union {1..5,7,8,9}
	if len(got) != len(want) {
		t.Fatalf("merged candidates %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged candidates %v, want %v", got, want)
		}
	}
}

// TestMergeOrderIndependent: merging A into B and B into A yields the
// same candidate set.
func TestMergeOrderIndependent(t *testing.T) {
	est := func(i uint64) float64 { return float64(i * 3 % 17) }
	build := func(items []uint64) *Tracker {
		tr := New(3)
		for _, i := range items {
			tr.Offer(i, est(i))
		}
		return tr
	}
	itemsA := []uint64{1, 2, 3, 4, 5, 6, 7}
	itemsB := []uint64{8, 9, 10, 11, 12, 13}
	ab := build(itemsA)
	if err := merge(ab, build(itemsB), estFunc(est)); err != nil {
		t.Fatal(err)
	}
	ba := build(itemsB)
	if err := merge(ba, build(itemsA), estFunc(est)); err != nil {
		t.Fatal(err)
	}
	ga, gb := ab.Candidates(), ba.Candidates()
	sort.Slice(ga, func(x, y int) bool { return ga[x] < ga[y] })
	sort.Slice(gb, func(x, y int) bool { return gb[x] < gb[y] })
	if len(ga) != len(gb) {
		t.Fatalf("merge not order independent: %v vs %v", ga, gb)
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("merge not order independent: %v vs %v", ga, gb)
		}
	}
}

// TestMergeRejectsCapacityMismatch.
func TestMergeRejectsCapacityMismatch(t *testing.T) {
	a, b := New(2), New(3)
	if err := merge(a, b, estFunc(func(uint64) float64 { return 0 })); err == nil {
		t.Fatal("merging different capacities should fail")
	}
}

// TestCloneIsolated: clone shares nothing mutable with the original.
func TestCloneIsolated(t *testing.T) {
	a := New(2)
	a.Offer(1, 10)
	a.Offer(2, 20)
	c := a.CloneInto(nil)
	c.Offer(3, 30)
	c.Offer(4, 40)
	c.Offer(5, 50) // evicts from the clone only
	if a.Len() != 2 {
		t.Fatalf("original tracks %d items after clone mutation, want 2", a.Len())
	}
	found := map[uint64]bool{}
	for _, i := range a.Candidates() {
		found[i] = true
	}
	if !found[1] || !found[2] {
		t.Fatalf("original lost items after clone mutation: %v", a.Candidates())
	}
}

// TestResetEmptiesIndex: offers after Reset behave like a fresh tracker.
func TestResetEmptiesIndex(t *testing.T) {
	a := New(2)
	for i := uint64(0); i < 10; i++ {
		a.Offer(i, float64(i))
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d", a.Len())
	}
	a.Offer(3, 1)
	if a.Len() != 1 || a.Candidates()[0] != 3 {
		t.Fatalf("tracker broken after Reset: %v", a.Candidates())
	}
}
