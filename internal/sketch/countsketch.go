// Package sketch implements the classic linear sketch the paper builds
// on: Count-Sketch (Charikar, Chen, Farach-Colton). It is a linear map
// of the frequency vector, so sketches of two streams can be added,
// subtracted, and compared; the alpha-property structures in sibling
// packages (csss, inner, heavy) reuse these tables on sampled
// sub-streams.
//
// The Count-Sketch guarantee reproduced here is Lemma 2 of the paper: a
// d x 6k table answers point queries within Err^k_2(f)/sqrt(k) with high
// probability for d = O(log n), and each row's L2 norm estimates ||f||_2
// within (1 +- O(1/sqrt(cols))) (Lemma 4).
//
// Hot-path notes: Update derives each row's bucket and sign from one
// 4-wise polynomial evaluation (hash.Buckets.BucketSign) and does no
// bookkeeping beyond the counter write — the largest-counter diagnostic
// is computed on demand by MaxAbs rather than tracked per write. Query
// and L2Estimate select medians in place over reusable scratch buffers
// (package order), so steady-state updates and point queries perform
// zero heap allocations. Because queries share that scratch, a sketch
// is single-goroutine for QUERIES as well as updates; shard across
// sketches for parallel readers.
package sketch

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/order"
)

// CountSketch is a d-row, w-column Count-Sketch with int64 counters.
type CountSketch struct {
	buckets *hash.Buckets
	rows    int
	cols    uint64
	// flat is the single rows*cols backing array; table[r] aliases
	// flat[r*cols:(r+1)*cols], so row-based sweeps keep their shape
	// while the batched query gather runs over the whole table in ONE
	// fused kernel call (hash.GatherSignRows).
	flat  []int64
	table [][]int64
	mass  int64 // sum of |delta| consumed: counters must be sized for it

	qInt    []int64   // scratch for Query's median
	qFloat  []float64 // scratch for L2Estimate's median
	resid   []float64 // scratch for RowResidualL2
	upCols  []uint64  // scratch for Update's row sweep
	upSigns []int64
	qBatch  []int64 // scratch for EstimateHashed's row-major gather
}

// NewCountSketch allocates a rows x cols Count-Sketch with fresh 4-wise
// independent hash functions drawn from rng.
func NewCountSketch(rng *rand.Rand, rows int, cols uint64) *CountSketch {
	return NewCountSketchWithBuckets(hash.NewBuckets(rng, rows, cols))
}

// NewCountSketchWithBuckets builds a Count-Sketch over existing hash
// functions. Two sketches sharing Buckets are comparable: their tables
// are coordinate-wise linear in their input streams, which the
// inner-product estimators require.
func NewCountSketchWithBuckets(b *hash.Buckets) *CountSketch {
	cs := &CountSketch{
		buckets: b,
		rows:    b.Rows,
		cols:    b.Cols,
		qInt:    make([]int64, b.Rows),
		qFloat:  make([]float64, b.Rows),
		upCols:  make([]uint64, b.Rows),
		upSigns: make([]int64, b.Rows),
	}
	cs.flat = make([]int64, uint64(cs.rows)*cs.cols)
	cs.table = make([][]int64, cs.rows)
	for i := range cs.table {
		cs.table[i] = cs.flat[uint64(i)*cs.cols : uint64(i+1)*cs.cols : uint64(i+1)*cs.cols]
	}
	return cs
}

// Rows returns the number of rows d.
func (cs *CountSketch) Rows() int { return cs.rows }

// Cols returns the number of columns (buckets per row).
func (cs *CountSketch) Cols() uint64 { return cs.cols }

// Buckets exposes the hash wiring for sketches that must share it.
func (cs *CountSketch) Buckets() *hash.Buckets { return cs.buckets }

// Update adds delta to coordinate i.
func (cs *CountSketch) Update(i uint64, delta int64) {
	if delta >= 0 {
		cs.mass += delta
	} else {
		cs.mass -= delta
	}
	cs.buckets.BucketSignsInto(i, cs.upCols, cs.upSigns)
	for r := 0; r < cs.rows; r++ {
		cs.table[r][cs.upCols[r]] += cs.upSigns[r] * delta
	}
}

// UpdateColumns applies a pre-planned columnar batch: one batch hash
// evaluation fills every row's bucket/sign columns (straight-line
// loops, coefficients in registers), then the apply stage sweeps the
// table one row at a time — sequential column reads against one
// cache-resident table row. Counter adds commute, so the resulting
// table is bit-identical to feeding the same updates through Update.
func (cs *CountSketch) UpdateColumns(b *core.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	deltas := b.Delta
	for _, d := range deltas {
		if d >= 0 {
			cs.mass += d
		} else {
			cs.mass -= d
		}
	}
	cols, signs := cs.HashColumns(b, b.Idx)
	for r := 0; r < cs.rows; r++ {
		row := cs.table[r]
		rc := cols[r*n : r*n+n : r*n+n]
		rs := signs[r*n : r*n+n : r*n+n]
		for j, d := range deltas {
			row[rc[j]] += int64(rs[j]) * d
		}
	}
}

// RowEstimate returns row r's estimate g_r(i) * table[r][h_r(i)] of f_i.
func (cs *CountSketch) RowEstimate(r int, i uint64) int64 {
	c, g := cs.buckets.BucketSign(r, i)
	return g * cs.table[r][c]
}

// Query returns the median-of-rows point estimate of f_i (Lemma 2).
func (cs *CountSketch) Query(i uint64) int64 {
	for r := 0; r < cs.rows; r++ {
		cs.qInt[r] = cs.RowEstimate(r, i)
	}
	return order.MedianInt64(cs.qInt)
}

// QueryColumns fills out[j] with Query(keys[j]) for every key — the
// batched read twin of UpdateColumns: HashColumns, then
// EstimateHashed. Answers are bit-identical to Query's; out must hold
// len(keys) entries.
func (cs *CountSketch) QueryColumns(b *core.Batch, keys []uint64, out []int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	if len(out) < n {
		panic(fmt.Sprintf("sketch: QueryColumns output holds %d entries, need %d", len(out), n))
	}
	cols, signs := cs.HashColumns(b, keys)
	cs.EstimateHashed(cols, signs, out[:n])
}

// HashColumns fills every row's bucket/sign columns of keys in ONE
// batch hash evaluation into b's reusable scratch and returns them,
// row-major (rows x len(keys)).
func (cs *CountSketch) HashColumns(b *core.Batch, keys []uint64) (cols []uint32, signs []int8) {
	cols, signs = b.Cols32(cs.rows*len(keys)), b.Signs8(cs.rows*len(keys))
	cs.buckets.BucketSignsBatch(keys, cols, signs)
	return cols, signs
}

// EstimateHashed fills out[j] with the j-th key's Query from its
// columns as HashColumns returns them: the gather stage sweeps the
// table one row at a time (all of a row's reads happen while that row
// is cache-resident), and the medians select per key over the gathered
// row-major estimate matrix.
func (cs *CountSketch) EstimateHashed(cols []uint32, signs []int8, out []int64) {
	n := len(out)
	if n == 0 {
		return
	}
	if len(cols) != cs.rows*n || len(signs) != cs.rows*n {
		panic(fmt.Sprintf("sketch: EstimateHashed got %d buckets and %d signs for %d keys in %d rows", len(cols), len(signs), n, cs.rows))
	}
	est := core.Grow(&cs.qBatch, cs.rows*n)
	// ONE fused gather covers every row of the estimate matrix — a
	// single kernel dispatch (and vector power-up) over the flat table
	// backing instead of one per row.
	hash.GatherSignRows(cs.flat, int(cs.cols), cs.rows, cols, signs, est)
	for j := 0; j < n; j++ {
		for r := 0; r < cs.rows; r++ {
			cs.qInt[r] = est[r*n+j]
		}
		out[j] = order.MedianInt64(cs.qInt)
	}
}

// RowL2 returns the L2 norm of row r, a (1 +- O(1/sqrt(cols))) estimate
// of ||f||_2 with probability 99/100 (Lemma 4).
func (cs *CountSketch) RowL2(r int) float64 {
	var s float64
	for _, v := range cs.table[r] {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// L2Estimate returns the median of the per-row L2 estimates.
func (cs *CountSketch) L2Estimate() float64 {
	for r := range cs.qFloat {
		cs.qFloat[r] = cs.RowL2(r)
	}
	return order.UpperMedianFloat64(cs.qFloat)
}

// RowResidualL2 returns the L2 norm of row r after subtracting the
// sketch of the sparse vector yhat (values at fixed-point scale fpUnit:
// the table is assumed to hold values multiplied by fpUnit). Used by the
// precision-sampling tail estimator (Lemma 5) on dense baselines.
func (cs *CountSketch) RowResidualL2(r int, yhat map[uint64]float64, fpUnit float64) float64 {
	if cs.resid == nil {
		cs.resid = make([]float64, cs.cols)
	}
	resid := cs.resid
	for c := uint64(0); c < cs.cols; c++ {
		resid[c] = float64(cs.table[r][c]) / fpUnit
	}
	for j, v := range yhat {
		c, g := cs.buckets.BucketSign(r, j)
		resid[c] -= float64(g) * v
	}
	var t float64
	for _, v := range resid {
		t += v * v
	}
	return math.Sqrt(t)
}

// RowInner returns <A_r, B_r> for row r of two sketches sharing hashes;
// its expectation is <f, g>.
func (cs *CountSketch) RowInner(other *CountSketch, r int) int64 {
	if cs.buckets != other.buckets {
		panic("sketch: RowInner requires sketches sharing hash.Buckets")
	}
	var s int64
	for c := uint64(0); c < cs.cols; c++ {
		s += cs.table[r][c] * other.table[r][c]
	}
	return s
}

// InnerProduct returns the median over rows of the per-row inner
// products, an estimate of <f, g> with additive error
// O(||f||_2 ||g||_2 / sqrt(cols)).
func (cs *CountSketch) InnerProduct(other *CountSketch) int64 {
	for r := 0; r < cs.rows; r++ {
		cs.qInt[r] = cs.RowInner(other, r)
	}
	return order.MedianInt64(cs.qInt)
}

// Merge folds another Count-Sketch of a disjoint (or overlapping)
// stream into this one by coordinate-wise addition — the linearity the
// sharded ingest engine relies on. The two sketches need not share a
// *hash.Buckets pointer: they must merely have been built
// the same way from the same seed, which the owner's Config check
// vouches for. other is not mutated: Add with one part, in place.
func (cs *CountSketch) Merge(other *CountSketch) error {
	_, err := cs.Add(cs, []*CountSketch{other})
	return err
}

// Add returns cs plus others, coordinate-wise, written into dst (nil,
// cs itself, or an earlier copy nobody else holds; never one of
// others): the table a chain of Merge calls leaves, summed block by
// block in one pass. Shapes are checked before anything is written.
func (cs *CountSketch) Add(dst *CountSketch, others []*CountSketch) (*CountSketch, error) {
	mass := cs.mass
	for _, o := range others {
		if o == nil {
			return nil, fmt.Errorf("sketch: merge with nil CountSketch")
		}
		if o.rows != cs.rows || o.cols != cs.cols {
			return nil, fmt.Errorf("sketch: adding a %dx%d CountSketch to a %dx%d one", o.rows, o.cols, cs.rows, cs.cols)
		}
		mass += o.mass
	}
	var first []int64 // nil in place: dst already holds cs's counters
	if dst != cs {
		if dst == nil || dst.buckets != cs.buckets {
			dst = NewCountSketchWithBuckets(cs.buckets)
		}
		first = cs.flat
	}
	core.SumBlocks(dst.flat, first, len(others), func(j int) []int64 { return others[j].flat })
	dst.mass = mass
	return dst, nil
}

// Sub subtracts the counters of another sketch sharing the same
// hashes; the mass is left alone.
func (cs *CountSketch) Sub(other *CountSketch) {
	if cs.buckets != other.buckets {
		panic("sketch: combining sketches with different hashes")
	}
	for c := range cs.flat {
		cs.flat[c] -= other.flat[c]
	}
}

// CloneInto returns a deep copy sharing the hash functions, written into
// dst (nil: a new one), an earlier copy nobody else holds.
func (cs *CountSketch) CloneInto(dst *CountSketch) *CountSketch {
	if dst == nil || dst.buckets != cs.buckets {
		dst = NewCountSketchWithBuckets(cs.buckets)
	}
	copy(dst.flat, cs.flat)
	dst.mass = cs.mass
	return dst
}

// MaxAbs returns the largest |counter| currently held — a diagnostic,
// computed on demand so the update loop does not pay for it.
func (cs *CountSketch) MaxAbs() int64 {
	var m int64
	for r := range cs.table {
		for _, v := range cs.table[r] {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
	}
	return m
}

// SpaceBits charges each counter at capacity: a turnstile Count-Sketch
// bucket can absorb the entire stream mass, so it must be dimensioned at
// log2(m M) + 1 bits (the paper's model for the dense baselines), plus
// the hash seeds.
func (cs *CountSketch) SpaceBits() int64 {
	perCounter := int64(nt.BitsFor(uint64(cs.mass))) + 1
	return int64(cs.rows)*int64(cs.cols)*perCounter + cs.buckets.SpaceBits()
}

// String summarizes dimensions for diagnostics.
func (cs *CountSketch) String() string {
	return fmt.Sprintf("CountSketch{%dx%d, maxAbs=%d}", cs.rows, cs.cols, cs.MaxAbs())
}
