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
	"repro/internal/wire/wiretest"
)

// hashedHeavyHitters is the read the tracker's column slab replaced:
// every candidate hashed again by one QueryColumns pass, then the same
// 3 eps R / 4 rule.
func hashedHeavyHitters(h *AlphaL1) []uint64 {
	b := core.GetBatch()
	defer core.PutBatch(b)
	cand := h.tracker.Candidates()
	est := make([]float64, len(cand))
	h.sk.QueryColumns(b, cand, est)
	thr := 3 * h.eps * h.scale.value() / 4
	var out []uint64
	for j, i := range cand {
		if math.Abs(est[j]) >= thr {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// checkSlab asserts the slab read against the hashing read on h: the
// Refresher's estimates, taken off the cached columns, must equal
// QueryColumns over the same candidates bit for bit, and HeavyHitters
// must return the hashing path's answer.
func checkSlab(t *testing.T, step string, h *AlphaL1) {
	t.Helper()
	b := core.GetBatch()
	defer core.PutBatch(b)
	ids, est := h.refresh.Estimates(h.tracker, b, h.sk)
	ids, est = slices.Clone(ids), slices.Clone(est)
	if want := h.tracker.Candidates(); !sameSet(ids, want) {
		t.Fatalf("%s: the slab read lists %v, the tracker holds %v", step, ids, want)
	}
	want := make([]float64, len(ids))
	h.sk.QueryColumns(b, ids, want)
	for j, id := range ids {
		if math.Float64bits(est[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: candidate %d reads %v off the slab, %v hashed", step, id, est[j], want[j])
		}
	}
	if got, want := h.HeavyHitters(), hashedHeavyHitters(h); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: HeavyHitters %v, the hashing read %v", step, got, want)
	}
}

func sameSet(a, b []uint64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestSlabReadMatchesHashedRead drives three same-seed structures
// through random interleavings of everything that writes a candidate
// tracker — columnar batches, scalar updates (admitting candidates
// without their columns), merges in both directions with either side
// stale or restored from a blob, CloneInto a recycled copy, and a
// marshal round trip — and after every step checks each structure's
// slab read against the hashing read. Small trackers (eps 0.1: 80
// slots) on a stream of a few thousand distinct keys evict on most
// batches, so a column left behind by an eviction, an admission that
// does not mark the slab stale, or a merge that files a column under
// the wrong slot reads another id's estimate.
func TestSlabReadMatchesHashedRead(t *testing.T) {
	const n = 1 << 12
	p := AlphaL1Params{N: n, Eps: 0.1, Mode: Strict, Alpha: 4}
	s := gen.BoundedDeletion(gen.Config{N: n, Items: 30000, Alpha: 4, Zipf: 1.1, Shuffle: true, Seed: 5})
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var pop [3]*AlphaL1
		for i := range pop {
			pop[i] = NewAlphaL1(rand.New(rand.NewSource(77)), p)
		}
		var spare *AlphaL1
		roundTrip := func(h *AlphaL1) *AlphaL1 {
			blob, err := h.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return wiretest.Restore(t, NewAlphaL1(rand.New(rand.NewSource(77)), p), blob)
		}
		scalar := func(h *AlphaL1, k int) {
			for range k {
				u := s.Updates[rng.Intn(len(s.Updates))]
				h.Update(u.Index, u.Delta)
			}
		}
		for step := 0; step < 120; step++ {
			i := rng.Intn(len(pop))
			j := (i + 1 + rng.Intn(len(pop)-1)) % len(pop)
			var what string
			switch rng.Intn(6) {
			case 0, 1:
				what = "batch"
				off := rng.Intn(len(s.Updates))
				end := min(len(s.Updates), off+1+rng.Intn(700))
				core.UpdateBatch(pop[i].UpdateColumns, s.Updates[off:end])
			case 2:
				what = "scalar"
				scalar(pop[i], 1+rng.Intn(60))
			case 3:
				what = "merge"
				switch rng.Intn(3) {
				case 0:
					scalar(pop[i], 1+rng.Intn(20)) // a stale receiver
				case 1:
					scalar(pop[j], 1+rng.Intn(20)) // a stale argument
				}
				other := pop[j]
				if rng.Intn(2) == 0 {
					what, other = "merge from a blob", roundTrip(pop[j])
				}
				if err := pop[i].Merge(other); err != nil {
					t.Fatal(err)
				}
			case 4:
				what = "clone into a recycled copy"
				c := pop[i].CloneInto(spare)
				spare, pop[i] = pop[i], c
			case 5:
				what = "marshal round trip"
				pop[i] = roundTrip(pop[i])
			}
			for k, h := range pop {
				checkSlab(t, what+" (structure "+string(rune('a'+k))+")", h)
			}
		}
	}
}
