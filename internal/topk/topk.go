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
// either replaces the current minimum or is dropped.
//
// Beside the heap sits a cache of each candidate's hash columns (its
// bucket and sign in every sketch row), a slab indexed by a slot the
// candidate keeps while tracked (a merge in place keeps the receiver's
// in theirs): an appended candidate takes its heap index, one that
// evicts the minimum takes the minimum's slot. A batched
// offer copies an admitted index's columns from the batch's, so a read
// (Refresher.Estimates) or a merge (Refresher.MergeAll) estimates off
// the slab and hashes nothing. Tracker.Offer and a decode admit
// candidates without columns and mark the slab stale: the next read
// hashes every candidate once, and so does every merge that reads the
// tracker. The slab is a function of the ids: SpaceBits does not
// charge it and the wire does not carry it.
package topk

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/nt"
)

// entry is one tracked (item, latest estimate) pair. absEst caches
// |est|, the heap ordering key; slot is the item's column in the slab.
type entry struct {
	id     uint64
	est    float64
	absEst float64
	slot   int32
}

// Tracker maintains a bounded set of candidate items with their latest
// estimates.
type Tracker struct {
	cap   int // what SpaceBits charges
	limit int // at most this many items retained
	heap  []entry

	// Linear-probe index: item id -> heap slot. Sized at >= 4x limit so
	// probe chains stay short; idxSlots[i] < 0 marks an empty cell.
	idxKeys  []uint64
	idxSlots []int32
	idxMask  uint64
	idxShift uint

	// The column slab: row r's bucket and sign of the candidate in slot
	// s are cols[r*limit+s] and signs[r*limit+s]. rows is 0 until the
	// first columns arrive; stale marks a candidate admitted without its
	// columns.
	rows  int
	cols  []uint32
	signs []int8
	stale bool
}

// New returns a tracker retaining up to 2*capacity items by |estimate|
// (the same retention breadth as the historical map-based tracker).
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
// evict the larger index first (the deterministic smallest-index-wins
// tie-break).
func less(a, b *entry) bool {
	if a.absEst != b.absEst {
		return a.absEst < b.absEst
	}
	return a.id > b.id
}

// Offer records the latest estimate for item i. Tracked items update in
// place; untracked items evict the current minimum when they beat it.
// No allocation occurs once the tracker is full. An item it admits has
// no columns in the slab, which goes stale.
func (t *Tracker) Offer(i uint64, est float64) {
	if t.offer(i, est, int32(len(t.heap))) >= 0 {
		t.stale = true
	}
}

// offer is Offer short of the slab: it returns the slot i was admitted
// to — at when appended, the evicted minimum's otherwise — or -1 when i
// was tracked already or fell below the floor.
func (t *Tracker) offer(i uint64, est float64, at int32) int {
	a := est
	if a < 0 {
		a = -a
	}
	if j := t.idxFind(i); j >= 0 {
		t.heap[j].est = est
		t.heap[j].absEst = a
		t.fix(int(j))
		return -1
	}
	e := entry{id: i, est: est, absEst: a, slot: at}
	if len(t.heap) < t.limit {
		t.heap = append(t.heap, e)
		j := len(t.heap) - 1
		t.idxPut(i, int32(j))
		t.up(j)
		return int(e.slot)
	}
	if less(&e, &t.heap[0]) {
		return -1 // below the eviction floor
	}
	e.slot = t.heap[0].slot
	t.idxDel(t.heap[0].id)
	t.heap[0] = e
	t.idxPut(i, 0)
	t.down(0)
	return int(e.slot)
}

// sizeSlab gives the slab rows rows. A slab it allocates holds no
// candidate's columns yet.
func (t *Tracker) sizeSlab(rows int) {
	if t.rows != rows {
		t.rows, t.cols, t.signs = rows, make([]uint32, rows*t.limit), make([]int8, rows*t.limit)
		t.stale = len(t.heap) > 0
	}
}

// Columnar is the sketch side of a refresh: HashColumns hashes keys in
// one batch pass into b's column scratch and returns their bucket and
// sign columns, row-major (rows x len(keys)); EstimateHashed turns such
// columns into the keys' point estimates, bit-identical to per-key
// Query. CSSS (float estimates) and Count-Sketch (integer estimates)
// implement it.
type Columnar[E int64 | float64] interface {
	HashColumns(b *core.Batch, keys []uint64) (cols []uint32, signs []int8)
	EstimateHashed(cols []uint32, signs []int8, est []E)
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

	gathered, kept int // the last MergeAll's or Over's candidate counts
}

// Offer hashes b's distinct indices against q in one pass and hands
// the columns to OfferHashed. b also supplies the hash-column scratch:
// the ingest that preceded the refresh is done with it. A batch too
// long to plan is refreshed piece by piece.
func (r *Refresher[E]) Offer(t *Tracker, b *core.Batch, q Columnar[E]) {
	if !core.Plannable(b) {
		core.Split(b, func(piece *core.Batch) { r.Offer(t, piece, q) })
		return
	}
	keys, _ := core.Distinct(b)
	cols, signs := q.HashColumns(b, keys)
	r.OfferHashed(t, b, cols, signs, q)
}

// OfferHashed offers b's distinct indices to t with the estimates q
// reads off cols and signs — their bucket and sign columns, as the
// sketch that applied b hashed them — and copies each admitted index's
// columns into its slot of t's slab.
func (r *Refresher[E]) OfferHashed(t *Tracker, b *core.Batch, cols []uint32, signs []int8, q Columnar[E]) {
	keys, _ := core.Distinct(b)
	est := core.Grow(&r.est, len(keys))
	q.EstimateHashed(cols, signs, est)
	if len(keys) > 0 {
		t.sizeSlab(len(cols) / len(keys))
	}
	for j, id := range keys {
		if s := t.offer(id, float64(est[j]), int32(len(t.heap))); s >= 0 {
			t.put(s, cols, signs, len(keys), j)
		}
	}
}

// Estimates re-estimates t's candidates against q in ONE EstimateHashed
// call over the slab (a stale slab is hashed and refilled first) and
// returns them with their estimates: ids by slot in b's Col64 scratch,
// est in r's estimate scratch, each valid until its owner's next use,
// so a read of the candidate set allocates nothing.
func (r *Refresher[E]) Estimates(t *Tracker, b *core.Batch, q Columnar[E]) (ids []uint64, est []E) {
	ids = refill(t, b, q)
	if len(ids) == 0 {
		return ids, nil
	}
	est = core.Grow(&r.est, t.limit)
	q.EstimateHashed(t.cols, t.signs, est)
	return ids, est[:len(ids)]
}

// Hash fills t's slab with its candidates' columns off q when it is
// stale (a whole slab is left alone), so the reads and merges that
// follow hash nothing: what a decoded tracker kept beside a store pays
// once instead of at every merge that reads it.
func Hash[E int64 | float64](t *Tracker, b *core.Batch, q Columnar[E]) { refill(t, b, q) }

// refill returns t's candidate ids by slot in b's Col64 scratch, first
// hashing them into a stale slab, which is whole afterwards.
func refill[E int64 | float64](t *Tracker, b *core.Batch, q Columnar[E]) []uint64 {
	n := len(t.heap)
	ids := b.Col64(n)
	for i := range t.heap {
		ids[t.heap[i].slot] = t.heap[i].id
	}
	if t.stale && n > 0 {
		cols, signs := q.HashColumns(b, ids)
		t.sizeSlab(len(cols) / n)
		for row := range t.rows {
			copy(t.cols[row*t.limit:], cols[row*n:(row+1)*n])
			copy(t.signs[row*t.limit:], signs[row*n:(row+1)*n])
		}
		t.stale = false
	}
	return ids
}

// put copies column from of cols and signs (row-major, rows x stride)
// into slot s.
func (t *Tracker) put(s int, cols []uint32, signs []int8, stride, from int) {
	for row := range t.rows {
		t.cols[row*t.limit+s], t.signs[row*t.limit+s] = cols[row*stride+from], signs[row*stride+from]
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

// Capacity returns the construction-time capacity.
func (t *Tracker) Capacity() int { return t.cap }

// Reset empties the tracker in place, keeping its capacity, index and
// slab storage.
func (t *Tracker) Reset() {
	t.heap = t.heap[:0]
	for i := range t.idxSlots {
		t.idxSlots[i] = -1
	}
	t.stale = false
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
		rows:     t.rows,
		cols:     append(dst.cols[:0], t.cols...),
		signs:    append(dst.signs[:0], t.signs...),
		stale:    t.stale,
	}
	return dst
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
