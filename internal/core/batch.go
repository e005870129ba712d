// batch.go implements the columnar batch arena — the "plan" stage of
// the plan → hash → apply ingest pipeline.
//
// A Batch is one ingest batch in structure-of-arrays form: the indices
// and deltas of every update live in two contiguous columns instead of
// an []stream.Update array-of-structs. The layout exists for the hash
// stage: a structure hands the whole Idx column to a batch hash
// evaluator (hash.Buckets.BucketSignsBatch, hash.KWise.RangeBatch),
// which fills contiguous bucket/sign columns for every row in
// straight-line loops, and the apply stage then sweeps one table row at
// a time — no per-item function calls, no per-item re-derivation of
// indices.
//
// Batches are pooled (GetBatch/PutBatch) so the steady-state ingest
// path allocates nothing: the engine's partitioner gets a batch per
// shard run, the shard goroutine applies it, and the buffer returns to
// the pool. The hash-column scratch (Cols32/Signs8/Col64) is part of
// the pooled object, so every structure a batch visits reuses the same
// backing arrays; each structure completes its hash+apply before the
// next one runs, which is what makes the sharing safe. A Batch is
// single-goroutine at any moment — ownership transfers (producer →
// shard inbox → pool), it is never shared.
//
// The plan stage also owns the batch's DISTINCT PLAN (Distinct): the
// distinct keys in first-occurrence order plus, for every update, the
// ordinal of its key. A batch repeats keys (a 4096-update batch of the
// benchmark's streams holds 0.3-0.6 distinct keys per update), so a
// structure that hashes per key hashes the distinct column once and
// applies through the ordinals.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"

	"repro/internal/stream"
)

// Batch is a columnar (structure-of-arrays) view of one ingest batch.
type Batch struct {
	// Idx and Delta are the update columns: update j is
	// (Idx[j], Delta[j]). On the write path they always have equal
	// length; a read-side plan (LoadKeys) carries a bare index column
	// with Delta empty — such a batch feeds query methods only, never
	// UpdateColumns.
	Idx   []uint64
	Delta []int64

	// Hash-column scratch, sized on demand by Cols32/Signs8/Col64.
	// Contents are transient per structure: each structure fills and
	// consumes them before the batch moves on.
	u32 []uint32
	i8  []int8
	u64 []uint64

	// The distinct plan (see Distinct), computed on first request and
	// kept until the index column changes. Unlike the hash columns it
	// belongs to the batch, not to the structure that asked: every
	// structure the batch visits reads the same plan.
	planned bool
	keys    []uint64 // distinct indices, first-occurrence order
	slot    []uint32 // slot[j] is the ordinal in keys of Idx[j]
	first   []uint32 // see First; empty until asked for
}

// Len returns the number of updates in the batch.
func (b *Batch) Len() int { return len(b.Idx) }

// Reset empties the update columns, keeping capacity.
func (b *Batch) Reset() {
	b.Idx = b.Idx[:0]
	b.Delta = b.Delta[:0]
	b.planned = false
}

// Append adds one update to the columns.
func (b *Batch) Append(i uint64, delta int64) {
	b.Idx = append(b.Idx, i)
	b.Delta = append(b.Delta, delta)
	b.planned = false
}

// AppendUpdates adds a run of updates, growing each column at most once.
func (b *Batch) AppendUpdates(us []stream.Update) {
	n, m := len(b.Idx), len(b.Idx)+len(us)
	if cap(b.Idx) < m || cap(b.Delta) < m {
		b.Idx = append(make([]uint64, 0, m), b.Idx...)
		b.Delta = append(make([]int64, 0, m), b.Delta...)
	}
	idx, delta := b.Idx[n:m], b.Delta[n:m]
	for j, u := range us {
		idx[j], delta[j] = u.Index, u.Delta
	}
	b.Idx, b.Delta, b.planned = b.Idx[:m], b.Delta[:m], false
}

// LoadUpdates replaces the batch contents with the given updates — the
// plan step for callers that receive array-of-structs input.
func (b *Batch) LoadUpdates(us []stream.Update) {
	b.Reset()
	b.AppendUpdates(us)
}

// UpdateBatch is the array-of-structs convenience entry of every
// structure: plan the updates into a pooled Batch, hand it to the
// structure's UpdateColumns, return the batch. It is the one place the
// ingest contract's three roles meet:
//
//   - Update(i, delta) is the per-item ORACLE — the reference the
//     differential tests hold the batch path to; it keeps its own
//     scalar hashing because it is the reference, not a fast path;
//   - UpdateColumns(b) is the PATH — plan → hash → apply over a
//     columnar batch, what the engine's shards call directly;
//   - UpdateBatch(updates) is plan + UpdateColumns, nothing else, so no
//     structure carries a wrapper of its own.
//
// apply receives the batch for the duration of the call only.
func UpdateBatch(apply func(*Batch), updates []stream.Update) {
	b := GetBatch()
	b.LoadUpdates(updates)
	apply(b)
	PutBatch(b)
}

// LoadKeys replaces the batch contents with a bare index column (the
// delta column stays empty) — the plan step for batched READS, where
// only indices flow: load the query set once, then hand the batch to
// EstimateColumns-style readers that reuse its hash-column scratch.
func (b *Batch) LoadKeys(keys []uint64) {
	b.Reset()
	if cap(b.Idx) < len(keys) {
		b.Idx = make([]uint64, 0, len(keys))
	}
	b.Idx = append(b.Idx, keys...)
}

// maxPlanLen is the longest batch Distinct plans: ordinals are uint32.
const maxPlanLen = math.MaxUint32

// Plannable reports whether b is short enough to carry a distinct
// plan. A structure that reads the plan feeds a longer batch in pieces
// (Split). (The plan's entry points are functions, not methods: Batch
// is the public bounded.Batch, and the plan is not part of that API.)
func Plannable(b *Batch) bool { return len(b.Idx) <= maxPlanLen }

// Split hands b to apply in consecutive plannable pieces, each a batch
// of its own over a stretch of b's columns — the route for a batch too
// long to plan. Feeding a structure a batch in pieces is feeding it the
// same updates in more, shorter batches.
func Split(b *Batch, apply func(*Batch)) { b.split(maxPlanLen, apply) }

func (b *Batch) split(max int, apply func(*Batch)) {
	for lo := 0; lo < len(b.Idx); lo += max {
		hi := min(lo+max, len(b.Idx))
		apply(&Batch{Idx: b.Idx[lo:hi:hi], Delta: b.Delta[lo:hi:hi]})
	}
}

// Distinct returns b's distinct plan: keys holds the distinct
// indices of Idx in first-occurrence order and slot[j] is the ordinal
// in keys of Idx[j], so keys[slot[j]] == Idx[j] for every update. The
// plan is computed on the first call and served from the batch until
// Reset, Append, LoadUpdates or LoadKeys changes the index column
// (nothing else may: a caller that writes Idx in place must reload it).
// Both columns belong to the batch and are read-only to the caller.
//
// The lookup behind it is an open-addressed table on the Fibonacci
// hash, keyed per process (planKey), linear probing, cells stamped with
// a generation (planTable): no map, no clearing, no allocation once the
// batch has seen its working size. b must be Plannable.
func Distinct(b *Batch) (keys []uint64, slot []uint32) {
	if !b.planned {
		n := len(b.Idx)
		if n > maxPlanLen {
			panic(fmt.Sprintf("core: Distinct on a batch of %d updates; Split it first", n))
		}
		if cap(b.keys) < n+1 {
			b.slot = make([]uint32, n)
			b.keys = make([]uint64, n+1) // one past the last ordinal: see planTable.build
		}
		t := planTables.Get().(*planTable)
		d := t.build(b.Idx, b.keys[:n+1], b.slot[:n])
		if len(t.cells) <= 2*maxRetainedCap { // what planning the longest retained batch takes
			planTables.Put(t)
		}
		b.keys, b.slot, b.first, b.planned = b.keys[:d], b.slot[:n], b.first[:0], true
	}
	return b.keys, b.slot
}

// First returns the position in Idx of each distinct key's first
// occurrence (ascending: the plan lists keys in that order) and, one
// past the last key, Len(): every update before first[o] carries a key
// of ordinal below o, so a cut between two keys maps to one between two
// updates. Derived on the first call and cached beside the plan.
func First(b *Batch) []uint32 {
	keys, slot := Distinct(b)
	if len(b.first) == 0 {
		if cap(b.first) <= len(keys) {
			b.first = make([]uint32, cap(b.slot)+1)
		}
		b.first = b.first[:len(keys)+1]
		b.first[len(keys)] = uint32(len(slot))
		for j := len(slot) - 1; j >= 0; j-- {
			b.first[slot[j]] = uint32(j)
		}
	}
	return b.first
}

// planTable is the index -> ordinal table a plan is built with. It is
// scratch of the build alone — the plan a batch keeps is the two
// columns — so tables are pooled apart from batches: a goroutine that
// plans batch after batch gets the same table back, warm in its cache,
// however many batches are in flight, and a batch at rest holds none.
type planTable struct {
	cells []planCell
	gen   uint32 // cells stamped otherwise are free
}

// planCell is one cell of the table. A cell is live only while its
// stamp equals the table's current generation, so starting a new plan
// is one increment, not a sweep.
type planCell struct {
	key uint64
	gen uint32
	ord uint32
}

var planTables = sync.Pool{New: func() any { return new(planTable) }}

// planKey is XORed into every key before the Fibonacci multiply: drawn
// once per process, so no key set chosen in advance piles a batch into
// one probe chain (unkeyed, the keys i/phi all home to cell 0), while
// runs of consecutive keys keep the constant's even spread — a random
// multiplier loses it in one process in a hundred. The plan — keys and
// slot — does not depend on it.
var planKey = rand.Uint64()

// build fills keys with idx's distinct indices in first-occurrence
// order and slot[j] with the ordinal of idx[j], and returns how many
// keys there are. keys holds len(idx)+1 entries, slot len(idx).
func (t *planTable) build(idx, keys []uint64, slot []uint32) int {
	// The plan uses the first 2^lg cells, at most half of which fill,
	// so probe chains stay short and a free cell always ends one; a
	// short batch keeps to a short stretch of a table a long one grew.
	if len(idx) == 0 {
		return 0
	}
	lg := uint(bits.Len(uint(2*len(idx) - 1)))
	if len(t.cells) < 1<<lg {
		t.cells = make([]planCell, 1<<lg)
		t.gen = 0
	}
	t.gen++
	if t.gen == 0 { // the stamp wrapped: cells of 2^32 plans ago would read as live
		clear(t.cells)
		t.gen = 1
	}
	tab, gen := t.cells[:1<<lg], t.gen
	shift, mask, key := 64-lg, uint64(1)<<lg-1, planKey
	// Whether an update's key is new to the batch is a coin no branch
	// predictor calls (it cost more than the table's cache misses), so
	// the loop does not branch on it: a probe stops at the first cell
	// that is free or already the key's — one test, rarely true, for
	// "live and another key's" — and then the cell, the key column's
	// next entry and the slot are written either way. Only the ordinal
	// written and the column's length depend on which it was.
	d := uint32(0)
	for j, k := range idx {
		h := (k ^ key) * 0x9E3779B97F4A7C15 >> shift
		c := &tab[h]
		free := nonzero(uint64(c.gen ^ gen))
		for nonzero(c.key^k)&^free != 0 {
			h = (h + 1) & mask
			c = &tab[h]
			free = nonzero(uint64(c.gen ^ gen))
		}
		fresh := uint32(free)
		ord := c.ord&(fresh-1) | d&-fresh
		*c = planCell{key: k, gen: gen, ord: ord}
		keys[d] = k // past the column's end unless the key is new
		slot[j] = ord
		d += fresh
	}
	return int(d)
}

// nonzero is 1 for x != 0 and 0 for x == 0, without a branch.
func nonzero(x uint64) uint64 { return (x | -x) >> 63 }

// Cols32 returns the uint32 hash-column scratch sized to n entries
// (typically rows*Len() for a row-major bucket matrix). Contents are
// unspecified; the caller fills them.
func (b *Batch) Cols32(n int) []uint32 {
	return Grow(&b.u32, n)
}

// Signs8 returns the int8 sign-column scratch sized to n entries.
func (b *Batch) Signs8(n int) []int8 {
	return Grow(&b.i8, n)
}

// Col64 returns the uint64 hash-column scratch sized to n entries —
// for bucket ranges too wide for uint32 (universe-sized reductions) and
// raw field-value columns.
func (b *Batch) Col64(n int) []uint64 {
	return Grow(&b.u64, n)
}

// batchPool is the shared arena. Batches from different call sites mix
// freely: capacity is retained (up to maxRetainedCap), so the pool
// converges to the workload's batch-size high-water mark.
var batchPool = sync.Pool{New: func() any {
	arenaMisses.Inc()
	return new(Batch)
}}

// GetBatch returns an empty pooled batch.
func GetBatch() *Batch {
	arenaGets.Inc()
	b := batchPool.Get().(*Batch)
	b.Reset()
	return b
}

// PutBatch returns a batch to the arena. The caller must not touch the
// batch afterwards. Batches whose retained column capacity exceeds
// maxRetainedCap are dropped to the GC instead of pooled.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	arenaPuts.Inc()
	if cap(b.Idx) > maxRetainedCap || cap(b.u32) > maxRetainedCap ||
		cap(b.i8) > maxRetainedCap || cap(b.u64) > maxRetainedCap || cap(b.slot) > maxRetainedCap {
		arenaOversized.Inc()
		return
	}
	batchPool.Put(b)
}
