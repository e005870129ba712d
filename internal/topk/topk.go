// Package topk provides a bounded candidate tracker — the standard
// heap-beside-sketch pattern: on every stream update the updated item's
// fresh sketch estimate is offered, so any true heavy item (whose
// estimate at some point exceeds the eviction floor) is retained. With
// capacity O(1/eps) the tracker adds O(eps^-1 log n) bits, within every
// heavy-hitters and sampling space budget in this library.
//
// The tracker is a slice-backed min-heap on |estimate| plus a
// linear-probe open-addressing index from item to heap slot, so the
// per-update Offer is allocation-free and avoids generic map hashing:
// updating a tracked item re-sifts it in place, and an untracked item
// either replaces the current minimum or is dropped. (The previous
// design — an unbounded map periodically compacted by sorting —
// allocated a fresh sort buffer and map every O(capacity) updates,
// which dominated the steady-state allocation profile of the
// heavy-hitters and sampler update loops.)
package topk

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/nt"
)

// entry is one tracked (item, latest estimate) pair. absEst caches
// |est|, the heap ordering key.
type entry struct {
	id     uint64
	est    float64
	absEst float64
}

// Tracker maintains a bounded set of candidate items with their latest
// estimates.
type Tracker struct {
	cap   int // Compact shrinks to this many items
	limit int // at most this many items retained between compactions
	heap  []entry

	// Linear-probe index: item id -> heap slot. Sized at >= 4x limit so
	// probe chains stay short; idxSlots[i] < 0 marks an empty cell.
	idxKeys  []uint64
	idxSlots []int32
	idxMask  uint64
	idxShift uint
}

// New returns a tracker retaining up to 2*capacity items by |estimate|
// between compactions (the same retention breadth as the historical
// map-based tracker), shrinking to the top `capacity` on Compact.
func New(capacity int) *Tracker {
	if capacity < 1 {
		capacity = 1
	}
	limit := 2 * capacity
	size := 1
	for size < 4*limit {
		size <<= 1
	}
	t := &Tracker{
		cap:      capacity,
		limit:    limit,
		heap:     make([]entry, 0, limit),
		idxKeys:  make([]uint64, size),
		idxSlots: make([]int32, size),
		idxMask:  uint64(size - 1),
		idxShift: uint(64 - bits.Len(uint(size-1))),
	}
	for i := range t.idxSlots {
		t.idxSlots[i] = -1
	}
	return t
}

// idxHome returns the preferred table cell of key k (Fibonacci hashing:
// multiply by the golden-ratio constant, keep the high bits).
func (t *Tracker) idxHome(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.idxShift & t.idxMask
}

// idxFind returns the heap slot of key k, or -1 if untracked.
func (t *Tracker) idxFind(k uint64) int32 {
	i := t.idxHome(k)
	for {
		s := t.idxSlots[i]
		if s < 0 {
			return -1
		}
		if t.idxKeys[i] == k {
			return s
		}
		i = (i + 1) & t.idxMask
	}
}

// idxPut inserts key k -> slot (k must not be present).
func (t *Tracker) idxPut(k uint64, slot int32) {
	i := t.idxHome(k)
	for t.idxSlots[i] >= 0 {
		i = (i + 1) & t.idxMask
	}
	t.idxKeys[i] = k
	t.idxSlots[i] = slot
}

// idxSet rewrites the heap slot of a present key.
func (t *Tracker) idxSet(k uint64, slot int32) {
	i := t.idxHome(k)
	for t.idxKeys[i] != k || t.idxSlots[i] < 0 {
		i = (i + 1) & t.idxMask
	}
	t.idxSlots[i] = slot
}

// idxDel removes key k with the classic linear-probe backward-shift, so
// the table carries no tombstones and probe chains stay bounded by the
// live load factor.
func (t *Tracker) idxDel(k uint64) {
	i := t.idxHome(k)
	for t.idxKeys[i] != k || t.idxSlots[i] < 0 {
		i = (i + 1) & t.idxMask
	}
	j := i
	for {
		t.idxSlots[i] = -1
		for {
			j = (j + 1) & t.idxMask
			if t.idxSlots[j] < 0 {
				return
			}
			h := t.idxHome(t.idxKeys[j])
			// The entry at j may move back to the hole at i unless its
			// home lies cyclically within (i, j].
			inSegment := false
			if i <= j {
				inSegment = i < h && h <= j
			} else {
				inSegment = i < h || h <= j
			}
			if !inSegment {
				break
			}
		}
		t.idxKeys[i] = t.idxKeys[j]
		t.idxSlots[i] = t.idxSlots[j]
		i = j
	}
}

// less orders the eviction heap: smaller |estimate| evicts first, ties
// evict the larger index first (so the surviving set matches the
// deterministic smallest-index-wins tie-break of the sorted compaction).
func less(a, b *entry) bool {
	if a.absEst != b.absEst {
		return a.absEst < b.absEst
	}
	return a.id > b.id
}

// Offer records the latest estimate for item i. Tracked items update in
// place; untracked items evict the current minimum when they beat it.
// No allocation occurs once the tracker is full.
func (t *Tracker) Offer(i uint64, est float64) {
	a := est
	if a < 0 {
		a = -a
	}
	if j := t.idxFind(i); j >= 0 {
		t.heap[j].est = est
		t.heap[j].absEst = a
		t.fix(int(j))
		return
	}
	e := entry{id: i, est: est, absEst: a}
	if len(t.heap) < t.limit {
		t.heap = append(t.heap, e)
		j := len(t.heap) - 1
		t.idxPut(i, int32(j))
		t.up(j)
		return
	}
	if less(&e, &t.heap[0]) {
		return // below the eviction floor
	}
	t.idxDel(t.heap[0].id)
	t.heap[0] = e
	t.idxPut(i, 0)
	t.down(0)
}

// Refresher is the batched-ingest candidate refresh — distinct column
// → batched re-estimate → offer — stated once for every structure that
// keeps a Tracker beside a point sketch. The sketch's median query is
// the dominant per-update cost of the per-item path, and an index
// updated k times in one batch needs only its final estimate offered,
// so a batch re-estimates each DISTINCT index once. The distinct column
// is the batch's own plan (core.Distinct), built once however
// many trackers are refreshed from it (the L1 sampler offers the same
// column to each of its parallel copies). The Refresher owns the
// estimate scratch; E is the sketch's estimate type.
type Refresher[E int64 | float64] struct {
	est []E
}

// Offer re-estimates b's distinct indices against q in one
// QueryColumns call (one batch hash pass, bit-identical to Query) and
// offers each fresh estimate to t. b also supplies the hash-column
// scratch: the ingest that preceded the refresh is done with it. A
// batch too long to plan is refreshed piece by piece.
func (r *Refresher[E]) Offer(t *Tracker, b *core.Batch, q interface {
	QueryColumns(b *core.Batch, keys []uint64, est []E)
}) {
	if !core.Plannable(b) {
		core.Split(b, func(piece *core.Batch) { r.Offer(t, piece, q) })
		return
	}
	keys, _ := core.Distinct(b)
	est := r.estimates(len(keys))
	q.QueryColumns(b, keys, est)
	offerAll(t, keys, est)
}

// OfferHashed is Offer against a sketch that hashed b's distinct
// indices while it applied the batch: cols and signs are those bucket
// and sign columns, and q estimates from them without a second hash
// pass.
func (r *Refresher[E]) OfferHashed(t *Tracker, b *core.Batch, cols []uint32, signs []int8, q interface {
	EstimateHashed(cols []uint32, signs []int8, est []E)
}) {
	keys, _ := core.Distinct(b)
	est := r.estimates(len(keys))
	q.EstimateHashed(cols, signs, est)
	offerAll(t, keys, est)
}

// Estimates re-estimates t's candidates against q in one QueryColumns
// call and returns them with their estimates: ids in b's Col64 scratch,
// est in r's estimate scratch, each valid until its owner's next use, so
// a read of the candidate set allocates neither.
func (r *Refresher[E]) Estimates(t *Tracker, b *core.Batch, q interface {
	QueryColumns(b *core.Batch, keys []uint64, est []E)
}) (ids []uint64, est []E) {
	ids = b.Col64(len(t.heap))
	for i := range t.heap {
		ids[i] = t.heap[i].id
	}
	est = r.estimates(len(ids))
	q.QueryColumns(b, ids, est)
	return ids, est
}

func (r *Refresher[E]) estimates(n int) []E {
	if cap(r.est) < n {
		r.est = make([]E, n)
	}
	return r.est[:n]
}

func offerAll[E int64 | float64](t *Tracker, keys []uint64, est []E) {
	for j, id := range keys {
		t.Offer(id, float64(est[j]))
	}
}

// Compact shrinks the tracked set to capacity, evicting the smallest
// |estimate| items (ties evict larger indices, keeping the historical
// deterministic tie-break).
func (t *Tracker) Compact() {
	for len(t.heap) > t.cap {
		last := len(t.heap) - 1
		t.idxDel(t.heap[0].id)
		t.heap[0] = t.heap[last]
		t.heap = t.heap[:last]
		if len(t.heap) > 0 {
			t.idxSet(t.heap[0].id, 0)
			t.down(0)
		}
	}
}

// Candidates returns the tracked items, unordered.
func (t *Tracker) Candidates() []uint64 {
	out := make([]uint64, len(t.heap))
	for i := range t.heap {
		out[i] = t.heap[i].id
	}
	return out
}

// Len returns the current number of tracked items.
func (t *Tracker) Len() int { return len(t.heap) }

// Capacity returns the construction-time capacity (Compact's target).
func (t *Tracker) Capacity() int { return t.cap }

// Reset empties the tracker in place, keeping its capacity and index
// storage.
func (t *Tracker) Reset() {
	t.heap = t.heap[:0]
	for i := range t.idxSlots {
		t.idxSlots[i] = -1
	}
}

// CloneInto returns a deep copy written into dst: nil, or an earlier copy nobody holds.
func (t *Tracker) CloneInto(dst *Tracker) *Tracker {
	if dst == nil {
		dst = &Tracker{heap: make([]entry, 0, t.limit)}
	}
	*dst = Tracker{
		cap:      t.cap,
		limit:    t.limit,
		heap:     append(dst.heap[:0], t.heap...),
		idxKeys:  append(dst.idxKeys[:0], t.idxKeys...),
		idxSlots: append(dst.idxSlots[:0], t.idxSlots...),
		idxMask:  t.idxMask,
		idxShift: t.idxShift,
	}
	return dst
}

// Merge combines other's candidate set into t's: the union of both
// sets is re-estimated against q — the merged sketch — in ONE
// QueryColumns call, as Offer re-estimates a batch's distinct keys, and
// re-offered, so the surviving set is the top-limit of the union under
// the post-merge estimates, whatever the insertion order (an id tracked
// on both sides is offered twice with the same estimate). b supplies
// the hash-column scratch; other is only read.
func (r *Refresher[E]) Merge(t, other *Tracker, b *core.Batch, q interface {
	QueryColumns(b *core.Batch, keys []uint64, est []E)
}) error {
	if other == nil {
		return fmt.Errorf("topk: merge with nil Tracker")
	}
	if t.cap != other.cap {
		return fmt.Errorf("topk: merging trackers with different capacities (%d vs %d)", t.cap, other.cap)
	}
	ids := make([]uint64, 0, len(t.heap)+len(other.heap))
	for _, h := range [][]entry{t.heap, other.heap} {
		for i := range h {
			ids = append(ids, h[i].id)
		}
	}
	est := r.estimates(len(ids))
	q.QueryColumns(b, ids, est)
	t.Reset()
	offerAll(t, ids, est)
	return nil
}

// SpaceBits charges cap slots of (id, estimate) pairs over universe n.
func (t *Tracker) SpaceBits(n uint64) int64 {
	return int64(t.cap) * int64(nt.BitsFor(n)+32)
}

func (t *Tracker) swap(a, b int) {
	t.heap[a], t.heap[b] = t.heap[b], t.heap[a]
	t.idxSet(t.heap[a].id, int32(a))
	t.idxSet(t.heap[b].id, int32(b))
}

func (t *Tracker) up(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !less(&t.heap[j], &t.heap[parent]) {
			break
		}
		t.swap(j, parent)
		j = parent
	}
}

func (t *Tracker) down(j int) {
	n := len(t.heap)
	for {
		l, r := 2*j+1, 2*j+2
		smallest := j
		if l < n && less(&t.heap[l], &t.heap[smallest]) {
			smallest = l
		}
		if r < n && less(&t.heap[r], &t.heap[smallest]) {
			smallest = r
		}
		if smallest == j {
			return
		}
		t.swap(j, smallest)
		j = smallest
	}
}

// fix restores the heap property after t.heap[j] changed in place.
func (t *Tracker) fix(j int) {
	t.down(j)
	t.up(j)
}
