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
package core

import (
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
}

// Len returns the number of updates in the batch.
func (b *Batch) Len() int { return len(b.Idx) }

// Reset empties the update columns, keeping capacity.
func (b *Batch) Reset() {
	b.Idx = b.Idx[:0]
	b.Delta = b.Delta[:0]
}

// Append adds one update to the columns.
func (b *Batch) Append(i uint64, delta int64) {
	b.Idx = append(b.Idx, i)
	b.Delta = append(b.Delta, delta)
}

// LoadUpdates replaces the batch contents with the given updates — the
// plan step for callers that receive array-of-structs input.
func (b *Batch) LoadUpdates(us []stream.Update) {
	b.Reset()
	if cap(b.Idx) < len(us) {
		b.Idx = make([]uint64, 0, len(us))
		b.Delta = make([]int64, 0, len(us))
	}
	for _, u := range us {
		b.Idx = append(b.Idx, u.Index)
		b.Delta = append(b.Delta, u.Delta)
	}
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

// Cols32 returns the uint32 hash-column scratch sized to n entries
// (typically rows*Len() for a row-major bucket matrix). Contents are
// unspecified; the caller fills them.
func (b *Batch) Cols32(n int) []uint32 {
	if cap(b.u32) < n {
		b.u32 = make([]uint32, n)
	}
	b.u32 = b.u32[:n]
	return b.u32
}

// Signs8 returns the int8 sign-column scratch sized to n entries.
func (b *Batch) Signs8(n int) []int8 {
	if cap(b.i8) < n {
		b.i8 = make([]int8, n)
	}
	b.i8 = b.i8[:n]
	return b.i8
}

// Col64 returns the uint64 hash-column scratch sized to n entries —
// for bucket ranges too wide for uint32 (universe-sized reductions) and
// raw field-value columns.
func (b *Batch) Col64(n int) []uint64 {
	if cap(b.u64) < n {
		b.u64 = make([]uint64, n)
	}
	b.u64 = b.u64[:n]
	return b.u64
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
		cap(b.i8) > maxRetainedCap || cap(b.u64) > maxRetainedCap {
		arenaOversized.Inc()
		return
	}
	batchPool.Put(b)
}
