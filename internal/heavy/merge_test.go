package heavy

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/topk"
)

func splitByIndex(s *stream.Stream, parts int) [][]stream.Update {
	out := make([][]stream.Update, parts)
	for _, u := range s.Updates {
		p := int(u.Index) % parts
		out[p] = append(out[p], u)
	}
	return out
}

// TestAlphaL1MergeMatchesSingleStream: same-seed shards over an index
// partition, merged, must report exactly the heavy hitters the
// single-writer structure reports (the CSSS stays in its exact regime
// on this workload), with identical point estimates.
func TestAlphaL1MergeMatchesSingleStream(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 14, Items: 40000, Alpha: 4, Zipf: 1.5, Seed: 31})
	p := AlphaL1Params{N: 1 << 14, Eps: 0.05, Mode: Strict, Alpha: 4}
	const seed = 37
	whole := NewAlphaL1(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(whole.UpdateColumns, s.Updates)

	parts := splitByIndex(s, 4)
	merged := NewAlphaL1(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	for _, pt := range parts[1:] {
		sh := NewAlphaL1(rand.New(rand.NewSource(seed)), p)
		core.UpdateBatch(sh.UpdateColumns, pt)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	got, want := merged.HeavyHitters(), whole.HeavyHitters()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged heavy hitters %v, single-stream %v", got, want)
	}
	for _, i := range want {
		if merged.Query(i) != whole.Query(i) {
			t.Fatalf("estimate of %d: merged %v, single-stream %v", i, merged.Query(i), whole.Query(i))
		}
	}
}

// TestAlphaL1MergeGeneralMode: the Cauchy L1 scale merges too.
func TestAlphaL1MergeGeneralMode(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.5, Seed: 41})
	p := AlphaL1Params{N: 1 << 12, Eps: 0.05, Mode: General, Alpha: 4}
	const seed = 43
	whole := NewAlphaL1(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(whole.UpdateColumns, s.Updates)

	parts := splitByIndex(s, 2)
	merged := NewAlphaL1(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	sh := NewAlphaL1(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(sh.UpdateColumns, parts[1])
	if err := merged.Merge(sh); err != nil {
		t.Fatal(err)
	}
	if got, want := merged.HeavyHitters(), whole.HeavyHitters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged heavy hitters %v, single-stream %v", got, want)
	}
}

// TestAlphaL1MergeRejectsMismatches: mode and eps mismatches fail.
// (Whether two structures share a seed is their owner's Config check.)
func TestAlphaL1MergeRejectsMismatches(t *testing.T) {
	p := AlphaL1Params{N: 1 << 10, Eps: 0.1, Mode: Strict, Alpha: 2}
	a := NewAlphaL1(rand.New(rand.NewSource(1)), p)
	pg := p
	pg.Mode = General
	if err := a.Merge(NewAlphaL1(rand.New(rand.NewSource(1)), pg)); err == nil {
		t.Fatal("merging different modes should fail")
	}
	pe := p
	pe.Eps = 0.2
	if err := a.Merge(NewAlphaL1(rand.New(rand.NewSource(1)), pe)); err == nil {
		t.Fatal("merging different eps should fail")
	}
}

// TestAlphaL2Merge: split-stream merge finds the planted L2-heavy item
// that the single-writer finds, with identical output.
func TestAlphaL2Merge(t *testing.T) {
	const n = 1 << 12
	st := &stream.Stream{N: n}
	r := rand.New(rand.NewSource(47))
	for i := 0; i < 8000; i++ {
		id := uint64(r.Intn(2000))
		st.Updates = append(st.Updates, stream.Update{Index: id, Delta: 2})
		if i%2 == 0 {
			st.Updates = append(st.Updates, stream.Update{Index: id, Delta: -2})
		}
	}
	st.Updates = append(st.Updates, stream.Update{Index: n - 1, Delta: 900})

	const seed = 53
	whole := NewAlphaL2(rand.New(rand.NewSource(seed)), n, 0.25, 2)
	core.UpdateBatch(whole.UpdateColumns, st.Updates)
	parts := splitByIndex(st, 3)
	merged := NewAlphaL2(rand.New(rand.NewSource(seed)), n, 0.25, 2)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	for _, pt := range parts[1:] {
		sh := NewAlphaL2(rand.New(rand.NewSource(seed)), n, 0.25, 2)
		core.UpdateBatch(sh.UpdateColumns, pt)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	got, want := merged.HeavyHitters(), whole.HeavyHitters()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged L2 heavy hitters %v, single-stream %v", got, want)
	}
	found := false
	for _, i := range got {
		if i == n-1 {
			found = true
		}
	}
	if !found {
		t.Fatal("merged structure missed the planted L2-heavy item")
	}
	if err := merged.Merge(NewAlphaL2(rand.New(rand.NewSource(seed)), n, 0.5, 2)); err == nil {
		t.Fatal("merging different eps should fail")
	}
}

// topOfUnion is the top limit of the union of the parts' candidates
// under est, by a full sort: larger |estimate| first, ties to the
// smaller id. It is returned sorted.
func topOfUnion(parts []*topk.Tracker, est func(uint64) float64, limit int) []uint64 {
	var union []uint64
	for _, p := range parts {
		union = append(union, p.Candidates()...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	sort.Slice(union, func(a, b int) bool {
		x, y := math.Abs(est(union[a])), math.Abs(est(union[b]))
		if x != y {
			return x > y
		}
		return union[a] < union[b]
	})
	union = union[:min(limit, len(union))]
	slices.Sort(union)
	return union
}

// TestMergeAllKeepsTopOfUnion: over 2 to 5 parts of one stream, each
// tracking more candidates than the union keeps, both heavy-hitters
// structures keep the top of the union of the parts' candidates under
// the merged sketch they rank by — the L1 structure's CSSS, the L2
// structure's insertion-pass Count-Sketch.
func TestMergeAllKeepsTopOfUnion(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 30000, Alpha: 4, Zipf: 1.1, Seed: 45})
	const seed = 47
	p := AlphaL1Params{N: 1 << 12, Eps: 0.1, Mode: Strict, Alpha: 4}
	for k := 2; k <= 5; k++ {
		chunk := len(s.Updates) / k
		l1s, l2s := make([]*AlphaL1, k), make([]*AlphaL2, k)
		for j := range k {
			l1s[j] = NewAlphaL1(rand.New(rand.NewSource(seed)), p)
			l2s[j] = NewAlphaL2(rand.New(rand.NewSource(seed)), 1<<12, 0.25, 2)
			core.UpdateBatch(l1s[j].UpdateColumns, s.Updates[j*chunk:(j+1)*chunk])
			core.UpdateBatch(l2s[j].UpdateColumns, s.Updates[j*chunk:(j+1)*chunk])
		}
		l1, err := l1s[0].MergeAll(nil, l1s[1:])
		if err != nil {
			t.Fatal(err)
		}
		var trackers []*topk.Tracker
		for _, h := range l1s {
			trackers = append(trackers, h.tracker)
		}
		want := topOfUnion(trackers, l1.Query, 2*l1.tracker.Capacity())
		if got := slices.Sorted(slices.Values(l1.tracker.Candidates())); !slices.Equal(got, want) {
			t.Fatalf("L1, %d parts: kept %d candidates, the union's top %d differs", k, len(got), len(want))
		}
		if union, kept := l1.MergeCounts(); kept != len(want) || union <= kept {
			t.Fatalf("L1, %d parts: MergeCounts %d, %d with %d kept of a larger union", k, union, kept, len(want))
		}

		l2, err := l2s[0].MergeAll(nil, l2s[1:])
		if err != nil {
			t.Fatal(err)
		}
		trackers = trackers[:0]
		for _, h := range l2s {
			trackers = append(trackers, h.trk)
		}
		want = topOfUnion(trackers, func(i uint64) float64 { return float64(l2.insCS.Query(i)) }, 2*l2.trk.Capacity())
		if got := slices.Sorted(slices.Values(l2.trk.Candidates())); !slices.Equal(got, want) {
			t.Fatalf("L2, %d parts: kept %d candidates, the union's top %d differs", k, len(got), len(want))
		}
	}
}
