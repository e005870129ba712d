package topk

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// bruteTop is the top limit of the union of ids under est by a full
// sort: larger |estimate| first, ties to the smaller id.
func bruteTop(ids []uint64, est func(uint64) float64, limit int) []entry {
	var union []entry
	for _, id := range ids {
		if !slices.ContainsFunc(union, func(e entry) bool { return e.id == id }) {
			v := est(id)
			union = append(union, entry{id: id, est: v, absEst: abs(v)})
		}
	}
	sort.Slice(union, func(a, b int) bool { return less(&union[b], &union[a]) })
	union = union[:min(limit, len(union))]
	for i := range union {
		union[i].absEst = 0
	}
	sort.Slice(union, func(a, b int) bool { return union[a].id < union[b].id })
	return union
}

// TestMergeAllIndependentOfPartOrder: over 1 to 5 parts — some whose
// slab holds every candidate's columns, some stale, as a decode leaves
// them, with ids on several parts and ties in |estimate| — MergeAll
// keeps the brute-force top limit of the union, leaves a slab whose
// columns are each candidate's own, reads no part it does not write,
// and marshals to the same bytes under every order of the parts and
// whether it writes in place, into nil or into an earlier result.
func TestMergeAllIndependentOfPartOrder(t *testing.T) {
	est := func(i uint64) float64 { return float64(int64(i*37%41) - 20) }
	rng := rand.New(rand.NewSource(5))
	build := func(seed int64, stale bool) *Tracker {
		r := rand.New(rand.NewSource(seed))
		tr := New(6)
		ids := make([]uint64, 3+r.Intn(27)) // from a few candidates to a full tracker
		for j := range ids {
			ids[j] = uint64(r.Intn(90)) * 0x100000001 // both estFunc rows tell ids apart
		}
		if stale {
			for _, id := range ids {
				tr.Offer(id, 0) // estimates from before the merge
			}
			return tr
		}
		var ref Refresher[float64]
		b := core.GetBatch()
		defer core.PutBatch(b)
		b.LoadKeys(ids)
		ref.Offer(tr, b, estFunc(est))
		return tr
	}
	for k := 1; k <= 5; k++ {
		for trial := range 6 {
			t.Run(fmt.Sprintf("parts=%d/%d", k, trial), func(t *testing.T) {
				seeds := make([]int64, k)
				stale := make([]bool, k)
				for j := range seeds {
					seeds[j], stale[j] = rng.Int63(), rng.Intn(2) == 0
				}
				parts := func(order []int) []*Tracker {
					out := make([]*Tracker, k)
					for j, o := range order {
						out[j] = build(seeds[o], stale[o])
					}
					return out
				}
				var ids []uint64
				for _, p := range parts(identity(k)) {
					ids = append(ids, p.Candidates()...)
				}
				want := bruteTop(ids, est, New(6).limit)
				var ref Refresher[float64]
				var recycled *Tracker
				var wantBytes []byte
				for _, order := range permutations(k) {
					for _, into := range []string{"nil", "place", "recycled"} {
						ps := parts(order)
						before := make([][]byte, k)
						for j, p := range ps {
							before[j], _ = p.MarshalBinary()
						}
						var dst *Tracker
						switch into {
						case "place":
							dst = ps[0]
						case "recycled":
							dst = recycled
						}
						b := core.GetBatch()
						got, err := ref.MergeAll(dst, ps, b, estFunc(est))
						core.PutBatch(b)
						if err != nil {
							t.Fatal(err)
						}
						if into == "recycled" {
							recycled = got
						}
						if !slices.Equal(pairs(got), want) {
							t.Fatalf("order %v into %s: kept %v, brute force %v", order, into, pairs(got), want)
						}
						if u, n := ref.MergeCounts(); n != len(want) || u < n {
							t.Fatalf("MergeCounts %d, %d with %d kept", u, n, len(want))
						}
						for j, p := range ps[1:] {
							if after, _ := p.MarshalBinary(); !bytes.Equal(after, before[j+1]) {
								t.Fatalf("order %v: MergeAll wrote part %d", order, j+1)
							}
						}
						gb, _ := got.MarshalBinary()
						if wantBytes == nil {
							wantBytes = gb
						} else if !bytes.Equal(gb, wantBytes) {
							t.Fatalf("order %v into %s: bytes differ from order %v into nil", order, into, identity(k))
						}
						if got.stale {
							t.Fatal("slab stale after MergeAll")
						}
						b = core.GetBatch()
						cand, slab := ref.Estimates(got, b, estFunc(est))
						for j, id := range cand {
							if slab[j] != est(id) {
								t.Fatalf("candidate %d reads %v off its slab column, its estimate is %v", id, slab[j], est(id))
							}
						}
						core.PutBatch(b)
					}
				}
			})
		}
	}
}

func identity(k int) []int {
	out := make([]int, k)
	for j := range out {
		out[j] = j
	}
	return out
}

// permutations lists every order of 0..k-1.
func permutations(k int) [][]int {
	if k == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, p := range permutations(k - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(slices.Clone(p[:at]), k-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestUnionSetLayoutIsCanonical: the dedupe table lists a set of ids in
// one order whatever order they are inserted in, colliding homes and a
// cluster that wraps past the last cell included.
func TestUnionSetLayoutIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := range 200 {
		n := 1 + rng.Intn(40)
		ids := make([]uint64, n)
		for j := range ids {
			ids[j] = uint64(rng.Intn(64)) // small keys: homes collide
		}
		var want []uint64
		for rep := range 4 {
			var u unionSet
			u.reset(n)
			order := slices.Clone(ids)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			var gathered []uint64
			for _, id := range order {
				if u.insert(id, int32(len(gathered))) {
					gathered = append(gathered, id)
				} else if !slices.Contains(gathered, id) {
					t.Fatalf("trial %d: %d reported present before its insert", trial, id)
				}
			}
			var listed []uint64
			for c, ref := range u.refs {
				if ref != 0 {
					if u.keys[c] != gathered[ref-1] {
						t.Fatalf("trial %d: cell %d holds %d with the gather index of %d", trial, c, u.keys[c], gathered[ref-1])
					}
					listed = append(listed, u.keys[c])
				}
			}
			if len(listed) != len(gathered) {
				t.Fatalf("trial %d: table lists %d ids, %d distinct inserted", trial, len(listed), len(gathered))
			}
			if rep == 0 {
				want = listed
			} else if !slices.Equal(listed, want) {
				t.Fatalf("trial %d: insertion orders list %v and %v", trial, listed, want)
			}
		}
	}
}

// TestSelectAtMatchesSort: the threshold select finds what a sort by
// less puts at every rank, over inputs with many tied |estimates|.
func TestSelectAtMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := range 300 {
		n := 1 + rng.Intn(60)
		es := make([]entry, n)
		for j := range es {
			v := float64(rng.Intn(9) - 4)
			es[j] = entry{id: uint64(rng.Int63()), est: v, absEst: abs(v)}
		}
		sorted := slices.Clone(es)
		sort.Slice(sorted, func(a, b int) bool { return less(&sorted[a], &sorted[b]) })
		k := rng.Intn(n)
		if got := selectAt(slices.Clone(es), k); got != sorted[k] {
			t.Fatalf("trial %d: rank %d selects %+v, sort puts %+v", trial, k, got, sorted[k])
		}
	}
}

// TestOverMatchesMergeAllRead: over parts whose candidates overlap, some
// parts stale, with more than limit candidates at or above the
// threshold and every |estimate| among them tied in fives, Over
// returns what MergeAll followed by a read of the kept candidates at
// the threshold returns — the first limit under less, so ties go to the
// smaller id — at every threshold from above every candidate to below
// all of them, and reads no part it could write.
func TestOverMatchesMergeAllRead(t *testing.T) {
	// |estimate| 30 for ids 0-4, 27 for 5-9, ...: the limit of 12 cuts
	// through the ties at 24, which break by id.
	est := func(i uint64) float64 {
		v := float64(30 - 3*(int64(i)/5))
		if i%2 == 1 {
			v = -v
		}
		return v
	}
	build := func(ids []uint64, stale bool) *Tracker {
		tr := New(6) // limit 12
		if stale {
			for _, id := range ids {
				tr.Offer(id, 0)
			}
			return tr
		}
		var ref Refresher[float64]
		b := core.GetBatch()
		defer core.PutBatch(b)
		b.LoadKeys(ids)
		ref.Offer(tr, b, estFunc(est))
		return tr
	}
	span := func(lo, hi uint64) []uint64 {
		var ids []uint64
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
		}
		return ids
	}
	parts := []*Tracker{build(span(6, 18), false), build(span(0, 12), true), build(span(12, 24), false)}
	before := make([][]byte, len(parts))
	for j, p := range parts {
		before[j], _ = p.MarshalBinary()
	}
	var ref Refresher[float64]
	b := core.GetBatch()
	defer core.PutBatch(b)
	merged, err := ref.MergeAll(nil, parts, b, estFunc(est))
	if err != nil {
		t.Fatal(err)
	}
	cand, slab := ref.Estimates(merged, b, estFunc(est))
	cand, slab = slices.Clone(cand), slices.Clone(slab)
	tested := 0
	for thr := 31.0; thr >= -1; thr-- { // through every |estimate|: the rule keeps equality
		var want []uint64
		for j, id := range cand {
			if abs(slab[j]) >= thr {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		above := 0
		for i := uint64(0); i < 24; i++ {
			if abs(est(i)) >= thr {
				above++
			}
		}
		got, err := ref.Over(parts, b, estFunc(est), thr)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("threshold %v: Over %v, MergeAll read %v", thr, got, want)
		}
		if union, kept := ref.MergeCounts(); union != above || kept != len(want) {
			t.Fatalf("threshold %v: MergeCounts %d, %d; %d distinct candidates reach it, %d returned", thr, union, kept, above, len(want))
		}
		if above > 12 {
			tested++
		}
	}
	if tested == 0 {
		t.Fatal("no threshold passed more than limit candidates: the cut went untested")
	}
	for j, p := range parts {
		if after, _ := p.MarshalBinary(); !bytes.Equal(after, before[j]) || (j == 1) != p.stale {
			t.Fatalf("Over wrote part %d", j)
		}
	}
	if _, err := ref.Over(nil, b, estFunc(est), 0); err == nil {
		t.Fatal("Over read no parts")
	}
}
