package topk

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/core"
)

// The k-way re-rank. A tracker beside a linear sketch is the one
// nonlinear part of a heavy-hitters state: the union of k sites is the
// sum of their tables plus the top-limit of their candidates under the
// summed table's estimates. MergeAll computes that top-limit in one
// pass — gather and dedupe, one estimate per candidate, a threshold
// select — instead of re-offering a growing candidate set part by part.

// source is where a gathered candidate's hash columns are: slot from of
// parts[part]'s slab, or column from of the stale parts' hashed columns
// when part is -1.
type source struct {
	part int32
	from int32
}

// unionScratch is MergeAll's and Over's scratch: the dedupe table, each
// gathered candidate's column source, each slab part's offset into the
// estimate column, the stale parts' ids, the select's copy of the union
// (Over's candidates at its threshold), the slab slots in use and those
// of kept candidates whose columns are hashed again. It is pooled, not
// kept by the Refresher: a view keeps no union-sized scratch between
// rebuilds, nor does a core.Batch, which the ingest path shares.
type unionScratch struct {
	set   unionSet
	src   []source
	off   []int
	stale []uint64
	ranks []entry
	used  []bool
	at    []int32
}

var scratchPool = sync.Pool{New: func() any { return new(unionScratch) }}

// MergeAll writes into dst the candidate set of the union of parts,
// re-ranked against q — the sketch of that union. Every part's
// candidates are gathered once, deduplicated by id, estimated once (off
// the part's slab, or hashed limit at a time for the parts whose slab
// is stale) and the top limit under less are kept: larger |estimate|
// first, ties to the smaller id. less is a total order, so the kept set
// is a function of the union alone. The heap is then built from the
// kept candidates in the dedupe table's order, which depends only on
// their ids: whatever order the parts come in, dst ends with the same
// heap, hence the same encoding.
//
// dst is nil, parts[0] (the merge runs in place: its candidates keep
// their slab slots), or an earlier result nobody else holds; never one
// of parts[1:]. The parts are only read, and dst's slab is whole
// afterwards. b supplies the hash scratch. Mismatched capacities are
// refused before anything is written.
func (r *Refresher[E]) MergeAll(dst *Tracker, parts []*Tracker, b *core.Batch, q Columnar[E]) (*Tracker, error) {
	if err := check(parts); err != nil {
		return nil, err
	}
	if dst == nil || dst.cap != parts[0].cap {
		dst = New(parts[0].cap)
	}
	if dst == parts[0] && dst.stale {
		refill(dst, b, q)
	}
	m := scratchPool.Get().(*unionScratch)
	defer scratchPool.Put(m)
	est, rows := r.estimate(m, parts, m.gather(parts), b, q)
	value := func(g int32) float64 {
		s := m.src[g]
		if s.part >= 0 {
			return float64(est[m.off[s.part]+int(s.from)])
		}
		return float64(est[s.from])
	}
	n := len(m.src)
	r.gathered = n
	thr, all := entry{}, n <= dst.limit
	if !all {
		// The least kept candidate: the one a sort by less puts limit
		// places from the top.
		ranks := core.Grow(&m.ranks, n)
		i := 0
		for c, ref := range m.set.refs {
			if ref != 0 {
				ranks[i] = entry{id: m.set.keys[c], absEst: abs(value(ref - 1))}
				i++
			}
		}
		thr = selectAt(ranks, n-dst.limit)
	}

	// Rebuild dst from the kept candidates in the dedupe table's order.
	// Those already in dst's slab keep their slots; the others take
	// free ones and their columns are copied in.
	self := int32(-2) // no part: dst is not parts[0]
	if dst == parts[0] {
		self = 0
	}
	if n > 0 {
		dst.sizeSlab(rows)
	}
	used := core.Grow(&m.used, dst.limit)
	clear(used)
	dst.heap = dst.heap[:0]
	for i := range dst.idxSlots {
		dst.idxSlots[i] = -1
	}
	for c, ref := range m.set.refs {
		if ref == 0 {
			continue
		}
		v := value(ref - 1)
		// Until the second pass gives it a slot, a candidate from
		// another part holds -2 - its gather index there.
		e := entry{id: m.set.keys[c], est: v, absEst: abs(v), slot: -1 - ref}
		if !all && less(&e, &thr) {
			continue
		}
		if s := m.src[ref-1]; s.part == self {
			e.slot, used[s.from] = s.from, true
		}
		dst.idxPut(e.id, int32(len(dst.heap)))
		dst.heap = append(dst.heap, e)
	}
	next, ids, at := 0, b.Col64(dst.limit)[:0], m.at[:0]
	for i := range dst.heap {
		e := &dst.heap[i]
		if e.slot >= 0 {
			continue
		}
		s := m.src[-2-e.slot]
		for used[next] {
			next++
		}
		used[next], e.slot = true, int32(next)
		if s.part < 0 {
			ids, at = append(ids, e.id), append(at, e.slot)
			continue
		}
		p := parts[s.part]
		dst.put(next, p.cols, p.signs, p.limit, int(s.from))
	}
	if len(ids) > 0 {
		// The kept candidates of stale parts are hashed again, at most
		// limit of them.
		cols, signs := q.HashColumns(b, ids)
		for j, slot := range at {
			dst.put(int(slot), cols, signs, len(ids), j)
		}
	}
	m.at = at
	for j := len(dst.heap)/2 - 1; j >= 0; j-- {
		dst.down(j)
	}
	dst.stale = false
	r.kept = len(dst.heap)
	return dst, nil
}

// Over answers a threshold read of the union of parts without building
// it: the candidates whose |estimate| against q — the sketch of that
// union — reaches thr, sorted by id, nil when none does. Every part's
// candidates are estimated off its slab (hashed limit at a time when it
// is stale, as MergeAll hashes them), those at or above thr are kept
// once each and, when more than limit are, cut to the first limit under
// less. That is what MergeAll followed by the same read of the kept
// candidates returns: a candidate at or above thr ranks above every one
// below it under less, so the top limit of the union, read at thr, is
// the top limit of the candidates at or above thr. The parts are only
// read; MergeCounts then reports how many distinct candidates reached
// thr and how many were returned.
func (r *Refresher[E]) Over(parts []*Tracker, b *core.Batch, q Columnar[E], thr float64) ([]uint64, error) {
	if err := check(parts); err != nil {
		return nil, err
	}
	m := scratchPool.Get().(*unionScratch)
	defer scratchPool.Put(m)
	stale := m.stale[:0]
	for _, p := range parts {
		if p.stale {
			for i := range p.heap {
				stale = append(stale, p.heap[i].id)
			}
		}
	}
	m.stale = stale
	est, _ := r.estimate(m, parts, stale, b, q)
	kept, s := m.ranks[:0], 0
	for pi, p := range parts {
		for i := range p.heap {
			at := m.off[pi] + int(p.heap[i].slot)
			if p.stale {
				at, s = s, s+1
			}
			if v := abs(float64(est[at])); v >= thr {
				kept = append(kept, entry{id: p.heap[i].id, absEst: v})
			}
		}
	}
	// A candidate on several parts has one estimate: the same columns
	// against the same table.
	byID := func(a, b entry) int { return cmp.Compare(a.id, b.id) }
	slices.SortFunc(kept, byID)
	kept = slices.CompactFunc(kept, func(a, b entry) bool { return a.id == b.id })
	m.ranks = kept
	r.gathered = len(kept)
	if limit := parts[0].limit; len(kept) > limit {
		least := selectAt(kept, len(kept)-limit)
		kept = slices.DeleteFunc(kept, func(e entry) bool { return less(&e, &least) })
		slices.SortFunc(kept, byID)
	}
	r.kept = len(kept)
	if len(kept) == 0 {
		return nil, nil
	}
	out := make([]uint64, len(kept))
	for j := range kept {
		out[j] = kept[j].id
	}
	return out, nil
}

// check refuses a merge or a read over no parts, a nil part or parts of
// different capacities.
func check(parts []*Tracker) error {
	if len(parts) == 0 {
		return fmt.Errorf("topk: merge of no trackers")
	}
	for _, p := range parts {
		if p == nil {
			return fmt.Errorf("topk: merge with nil Tracker")
		}
		if p.cap != parts[0].cap {
			return fmt.Errorf("topk: merging trackers with different capacities (%d vs %d)", parts[0].cap, p.cap)
		}
	}
	return nil
}

// MergeCounts reports the last MergeAll's candidate counts: how many
// distinct candidates its parts held together, and how many it kept
// (the smaller of that and the tracker's limit) — or the last Over's:
// how many distinct candidates reached its threshold, and how many it
// returned.
func (r *Refresher[E]) MergeCounts() (union, kept int) {
	return r.gathered, r.kept
}

// gather collects every part's candidates once each, in part order,
// with where their columns are, and returns the stale parts' ids, to
// be hashed.
func (m *unionScratch) gather(parts []*Tracker) (stale []uint64) {
	n := 0
	for _, p := range parts {
		n += len(p.heap)
	}
	m.set.reset(n)
	m.src = slices.Grow(m.src[:0], n)
	stale = slices.Grow(m.stale[:0], n)
	for pi, p := range parts {
		for i := range p.heap {
			id := p.heap[i].id
			if !m.set.insert(id, int32(len(m.src))) {
				continue
			}
			s := source{part: int32(pi), from: p.heap[i].slot}
			if p.stale {
				s = source{part: -1, from: int32(len(stale))}
				stale = append(stale, id)
			}
			m.src = append(m.src, s)
		}
	}
	m.stale = stale
	return stale
}

// estimate reads every gathered candidate's estimate: the stale ids
// first, hashed into b and estimated limit at a time — so neither b's
// columns nor q's estimate scratch outgrow what one tracker's
// candidates take, in a view or in the pool the ingest path shares —
// then each part with a whole slab off it, at m.off[part]. It returns
// the estimate column and the sketch's row count.
func (r *Refresher[E]) estimate(m *unionScratch, parts []*Tracker, stale []uint64, b *core.Batch, q Columnar[E]) (est []E, rows int) {
	n := len(stale)
	m.off = core.Grow(&m.off, len(parts))
	for pi, p := range parts {
		m.off[pi] = n
		if !p.stale && len(p.heap) > 0 {
			n += p.limit
			rows = p.rows
		}
	}
	est = core.Grow(&r.est, n)
	for lo, step := 0, parts[0].limit; lo < len(stale); lo += step {
		hi := min(lo+step, len(stale))
		cols, signs := q.HashColumns(b, stale[lo:hi])
		rows = len(cols) / (hi - lo)
		q.EstimateHashed(cols, signs, est[lo:hi])
	}
	for pi, p := range parts {
		if !p.stale && len(p.heap) > 0 {
			q.EstimateHashed(p.cols, p.signs, est[m.off[pi]:m.off[pi]+p.limit])
		}
	}
	return est, rows
}

// selectAt reorders rs so that rs[k] is what sorting by less would put
// there, and returns it: quickselect on a median-of-three pivot. The
// ids are distinct, so no two entries tie.
func selectAt(rs []entry, k int) entry {
	lo, hi := 0, len(rs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(&rs[mid], &rs[lo]) {
			rs[mid], rs[lo] = rs[lo], rs[mid]
		}
		if less(&rs[hi], &rs[lo]) {
			rs[hi], rs[lo] = rs[lo], rs[hi]
		}
		if less(&rs[mid], &rs[hi]) {
			rs[mid], rs[hi] = rs[hi], rs[mid]
		}
		pivot, i := rs[hi], lo // the median of the three, at hi
		for j := lo; j < hi; j++ {
			if less(&rs[j], &pivot) {
				rs[i], rs[j] = rs[j], rs[i]
				i++
			}
		}
		rs[i], rs[hi] = rs[hi], rs[i]
		switch {
		case k < i:
			hi = i - 1
		case k > i:
			lo = i + 1
		default:
			return rs[k]
		}
	}
	return rs[k]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// unionSet is the re-rank's dedupe table: linear probing in Robin Hood
// order, ties to the smaller id. Every cluster then lists its ids by
// (home cell, id), so the table's layout, and the order its cells list
// the union in, are a function of the id set whatever the insertion
// order.
type unionSet struct {
	keys  []uint64
	refs  []int32 // 1 + the id's gather index; 0 marks an empty cell
	mask  uint64
	shift uint
}

// reset empties the table, sized for n ids at load at most 1/2.
func (u *unionSet) reset(n int) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if cap(u.refs) < size {
		u.keys, u.refs = make([]uint64, size), make([]int32, size)
	}
	u.keys, u.refs = u.keys[:size], u.refs[:size]
	clear(u.refs)
	u.mask, u.shift = uint64(size-1), uint(64-bits.Len(uint(size-1)))
}

// home is k's preferred cell (Fibonacci hashing, as the tracker's index).
func (u *unionSet) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> u.shift & u.mask
}

// insert adds id with gather index g and reports whether it was new.
// An id sits before every id of its cluster with a later home, or the
// same home and a larger id; the ids it passes are moved one cell on.
func (u *unionSet) insert(id uint64, g int32) bool {
	i, d, ref := u.home(id), uint64(0), g+1
	for {
		held := u.refs[i]
		if held == 0 {
			u.keys[i], u.refs[i] = id, ref
			return true
		}
		k := u.keys[i]
		if k == id {
			return false // only before a displacement: a moved id is in no other cell
		}
		if dk := (i - u.home(k)) & u.mask; dk < d || dk == d && k > id {
			u.keys[i], u.refs[i] = id, ref
			id, ref, d = k, held, dk
		}
		i, d = (i+1)&u.mask, d+1
	}
}
