package hash

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/nt"
)

// Batch evaluators — the "hash" stage of the columnar plan → hash →
// apply ingest pipeline. Each fills a contiguous output column for a
// whole batch of keys in one straight-line sweep per row, and the
// results are bit-identical to the scalar accessors they batch
// (BucketSign, Range, Field) — the property the columnar differential
// tests assert. The sweeps themselves are kernels (kernel.go): one
// init-time dispatch decides whether a row runs the portable scalar
// loop or its 4-lane AVX2 twin, and both produce identical columns.

// BucketSignsBatch fills, for every row r and key j, the Count-Sketch
// bucket cols[r*len(keys)+j] and ±1 sign signs[r*len(keys)+j] — the
// row-major column layout the columnar apply sweeps. Both slices must
// hold Rows*len(keys) entries. Buckets are bit-identical to
// BucketSign/BucketSignsInto. The uint32 bucket column requires
// Cols <= 2^32; every Count-Sketch row table in this library is
// O(K/eps) columns, far below that.
func (b *Buckets) BucketSignsBatch(keys []uint64, cols []uint32, signs []int8) {
	n := len(keys)
	if n == 0 {
		return // before stats: an empty sweep is not a dispatch
	}
	if len(cols) < b.Rows*n || len(signs) < b.Rows*n {
		panic(fmt.Sprintf("hash: BucketSignsBatch columns hold %d/%d entries, need %d", len(cols), len(signs), b.Rows*n))
	}
	if b.Cols > math.MaxUint32 {
		panic(fmt.Sprintf("hash: BucketSignsBatch requires Cols <= 2^32, got %d", b.Cols))
	}
	// One FUSED kernel call covers every row — a single vector power-up
	// per batch. The dispatch tally compares the total key volume
	// (Rows*n), the same quantity the fused wrapper's cutover check
	// uses, and counts the whole batch as one dispatch.
	bucketSignsDispatch.count(b.Rows*n, 1)
	active.bucketSignsRows(b.flat, b.Rows, b.Cols, keys, cols[:b.Rows*n], signs[:b.Rows*n])
}

// FieldBatch fills out[j] with the polynomial evaluation at keys[j],
// bit-identical to Field. out must hold len(keys) entries. The k = 2
// and k = 4 cases run as kernels with coefficients in registers, k = 8
// as four interleaved scalar chains (fieldK8); other degrees fall back
// to the scalar evaluator per key.
func (h *KWise) FieldBatch(keys []uint64, out []uint64) {
	if len(keys) == 0 {
		return // before stats: an empty sweep is not a dispatch
	}
	if len(out) < len(keys) {
		panic(fmt.Sprintf("hash: FieldBatch output holds %d entries, need %d", len(out), len(keys)))
	}
	switch len(h.coeffs) {
	case 2:
		fieldDispatch.count(len(keys), 1)
		active.fieldK2(h.coeffs[0], h.coeffs[1], keys, out)
	case 4:
		fieldDispatch.count(len(keys), 1)
		active.fieldK4(h.coeffs[0], h.coeffs[1], h.coeffs[2], h.coeffs[3], keys, out)
	case 8:
		fieldDispatch.scalar.Inc() // portable Go whatever the length
		h.fieldK8(keys, out)
	default:
		// Per-key fallback: always the scalar route regardless of length.
		fieldDispatch.scalar.Inc()
		for j, x := range keys {
			out[j] = h.Field(x)
		}
	}
}

// fieldK8 evaluates a degree-7 polynomial four keys at a time: one
// Horner chain is seven DEPENDENT multiply-adds, four stepped together
// keep the multiplier fed. The steps and the reduction are
// fieldReduced's, so the values are Field's.
func (h *KWise) fieldK8(keys, out []uint64) {
	c, step := (*[8]uint64)(h.coeffs), nt.MulAddLazyMersenne61
	j := 0
	for ; j+4 <= len(keys); j += 4 {
		x0, x1 := keys[j]%nt.MersennePrime61, keys[j+1]%nt.MersennePrime61
		x2, x3 := keys[j+2]%nt.MersennePrime61, keys[j+3]%nt.MersennePrime61
		a0, a1, a2, a3 := step(c[7], x0, c[6]), step(c[7], x1, c[6]), step(c[7], x2, c[6]), step(c[7], x3, c[6])
		a0, a1, a2, a3 = step(a0, x0, c[5]), step(a1, x1, c[5]), step(a2, x2, c[5]), step(a3, x3, c[5])
		a0, a1, a2, a3 = step(a0, x0, c[4]), step(a1, x1, c[4]), step(a2, x2, c[4]), step(a3, x3, c[4])
		a0, a1, a2, a3 = step(a0, x0, c[3]), step(a1, x1, c[3]), step(a2, x2, c[3]), step(a3, x3, c[3])
		a0, a1, a2, a3 = step(a0, x0, c[2]), step(a1, x1, c[2]), step(a2, x2, c[2]), step(a3, x3, c[2])
		a0, a1, a2, a3 = step(a0, x0, c[1]), step(a1, x1, c[1]), step(a2, x2, c[1]), step(a3, x3, c[1])
		a0, a1, a2, a3 = step(a0, x0, c[0]), step(a1, x1, c[0]), step(a2, x2, c[0]), step(a3, x3, c[0])
		out[j], out[j+1] = nt.ReduceLazyMersenne61(a0), nt.ReduceLazyMersenne61(a1)
		out[j+2], out[j+3] = nt.ReduceLazyMersenne61(a2), nt.ReduceLazyMersenne61(a3)
	}
	for ; j < len(keys); j++ {
		out[j] = h.Field(keys[j])
	}
}

// RangeBatch fills out[j] with the bucket of keys[j] in [0, r),
// bit-identical to Range. The output column is uint64 because callers
// reduce onto universe-sized ranges (shard partitioning, level
// assignment) as well as table widths.
func (h *KWise) RangeBatch(keys []uint64, r uint64, out []uint64) {
	if r == 0 {
		panic("hash: RangeBatch with r == 0")
	}
	if len(keys) == 0 {
		return // before stats: an empty sweep is not a dispatch
	}
	if len(out) < len(keys) {
		panic(fmt.Sprintf("hash: RangeBatch output holds %d entries, need %d", len(out), len(keys)))
	}
	switch len(h.coeffs) {
	case 2:
		rangeDispatch.count(len(keys), 1)
		active.rangeK2(h.coeffs[0], h.coeffs[1], r, keys, out)
	default:
		// The fallback evaluates via FieldBatch, which counts itself
		// under the field family; the reduction loop below is portable
		// scalar code either way.
		rangeDispatch.scalar.Inc()
		h.FieldBatch(keys, out)
		for j, v := range out[:len(keys)] {
			hi, _ := bits.Mul64(v<<3, r)
			out[j] = hi
		}
	}
}
