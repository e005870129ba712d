package sketch

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/order"
)

// CountMin is a d-row, w-column Count-Min sketch. On strict turnstile
// streams the min-of-rows query overestimates f_i by at most
// ||f||_1 / cols per row in expectation; it is the standard unbounded-
// deletion heavy hitters baseline the paper's Figure 1 compares against.
type CountMin struct {
	rows int
	cols uint64
	hs   []*hash.KWise
	// pairs bundles the rows' pairwise coefficients for the FUSED
	// multi-row range evaluation (one kernel call per batch instead of
	// one per row). nil when any row hash is not pairwise — possible
	// only through hostile/legacy wire state — in which case the batch
	// paths fall back to per-row RangeBatch.
	pairs  *hash.PairRows
	table  [][]int64
	maxAbs int64 // largest |counter| ever held: the space-sizing peak
	total  int64 // running sum of deltas = ||f||_1 on insertion-only input

	qInt []int64 // scratch for QueryMedian
}

// NewCountMin allocates a rows x cols Count-Min with pairwise hashes.
func NewCountMin(rng *rand.Rand, rows int, cols uint64) *CountMin {
	cm := &CountMin{rows: rows, cols: cols, qInt: make([]int64, rows)}
	cm.hs = make([]*hash.KWise, rows)
	for i := range cm.hs {
		cm.hs[i] = hash.NewPairwise(rng)
	}
	cm.pairs = hash.NewPairRows(cm.hs)
	cm.table = make([][]int64, rows)
	for i := range cm.table {
		cm.table[i] = make([]int64, cols)
	}
	return cm
}

// Update adds delta to coordinate i. Unlike Count-Sketch and CSSS
// (whose counters are monotone between halvings, so the peak is
// recoverable by scanning), Count-Min counters shrink on deletions at
// arbitrary times, so the largest-value-ever peak that SpaceBits
// charges must be tracked as writes happen. Count-Min is a baseline,
// not a timed hot path, so the two compares per row stay.
func (cm *CountMin) Update(i uint64, delta int64) {
	cm.total += delta
	for r := 0; r < cm.rows; r++ {
		c := cm.hs[r].Range(i, cm.cols)
		cm.table[r][c] += delta
		if a := cm.table[r][c]; a > cm.maxAbs {
			cm.maxAbs = a
		} else if -a > cm.maxAbs {
			cm.maxAbs = -a
		}
	}
}

// UpdateColumns applies a pre-planned columnar batch: ONE fused hash
// evaluation fills every row's bucket column (hash.PairRows — a single
// kernel dispatch for the whole batch), then the counter sweep walks
// the table one row at a time with the peak tracking of Update.
// Counter adds commute and each counter sees its writes in batch
// order, so table and maxAbs are bit-identical to the scalar path.
func (cm *CountMin) UpdateColumns(b *core.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	deltas := b.Delta
	for _, d := range deltas {
		cm.total += d
	}
	buckets := cm.rangeRows(b, b.Idx, n)
	for r := 0; r < cm.rows; r++ {
		row := cm.table[r]
		rb := buckets[r*n : r*n+n : r*n+n]
		for j, d := range deltas {
			c := rb[j]
			row[c] += d
			if a := row[c]; a > cm.maxAbs {
				cm.maxAbs = a
			} else if -a > cm.maxAbs {
				cm.maxAbs = -a
			}
		}
	}
}

// rangeRows fills and returns the row-major rows x n bucket matrix for
// keys: the fused multi-row kernel when the pairwise bundle exists,
// the per-row RangeBatch loop otherwise (bit-identical either way).
func (cm *CountMin) rangeRows(b *core.Batch, keys []uint64, n int) []uint64 {
	buckets := b.Col64(cm.rows * n)
	if cm.pairs != nil {
		cm.pairs.RangeBatchRows(keys, cm.cols, buckets)
		return buckets
	}
	for r := 0; r < cm.rows; r++ {
		cm.hs[r].RangeBatch(keys, cm.cols, buckets[r*n:r*n+n:r*n+n])
	}
	return buckets
}

// Query returns the min-of-rows estimate, valid for strict turnstile
// streams (never underestimates f_i when all frequencies are >= 0).
func (cm *CountMin) Query(i uint64) int64 {
	best := int64(1)<<62 - 1
	for r := 0; r < cm.rows; r++ {
		v := cm.table[r][cm.hs[r].Range(i, cm.cols)]
		if v < best {
			best = v
		}
	}
	return best
}

// QueryColumns fills out[j] with Query(keys[j]) for every key: ONE
// fused hash evaluation fills every row's bucket column, then the
// gather sweep folds each row's counters into the running min — all of
// a row's reads happen while the row is cache-resident, and the whole
// index set pays one kernel dispatch instead of one per row. Answers
// are bit-identical to Query's; out must hold len(keys) entries.
func (cm *CountMin) QueryColumns(b *core.Batch, keys []uint64, out []int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	if len(out) < n {
		panic(fmt.Sprintf("sketch: QueryColumns output holds %d entries, need %d", len(out), n))
	}
	buckets := cm.rangeRows(b, keys, n)
	for j := range out[:n] {
		out[j] = int64(1)<<62 - 1
	}
	for r := 0; r < cm.rows; r++ {
		row := cm.table[r]
		for j, c := range buckets[r*n : r*n+n : r*n+n] {
			if v := row[c]; v < out[j] {
				out[j] = v
			}
		}
	}
}

// QueryMedian returns the median-of-rows estimate (Count-Median), usable
// on general turnstile streams.
func (cm *CountMin) QueryMedian(i uint64) int64 {
	for r := 0; r < cm.rows; r++ {
		cm.qInt[r] = cm.table[r][cm.hs[r].Range(i, cm.cols)]
	}
	return order.MedianInt64(cm.qInt)
}

// Total returns the running sum of all deltas (equals ||f||_1 for
// insertion-only streams and sum f_i in general).
func (cm *CountMin) Total() int64 { return cm.total }

// InnerProduct returns min over rows of <A_r, B_r>, the classic
// Count-Min join-size estimate; requires the two sketches to share
// dimensions and hash functions (build the second with SameHashes).
func (cm *CountMin) InnerProduct(other *CountMin) int64 {
	best := int64(1)<<62 - 1
	for r := 0; r < cm.rows; r++ {
		var s int64
		for c := uint64(0); c < cm.cols; c++ {
			s += cm.table[r][c] * other.table[r][c]
		}
		if s < best {
			best = s
		}
	}
	return best
}

// SameHashes returns an empty Count-Min sharing this sketch's hash
// functions, so inner products between the two are meaningful.
func (cm *CountMin) SameHashes() *CountMin {
	c := &CountMin{rows: cm.rows, cols: cm.cols, hs: cm.hs, pairs: cm.pairs, qInt: make([]int64, cm.rows)}
	c.table = make([][]int64, cm.rows)
	for i := range c.table {
		c.table[i] = make([]int64, cm.cols)
	}
	return c
}

// Merge folds another Count-Min built from the same seed into this one
// by coordinate-wise addition. other is not mutated.
func (cm *CountMin) Merge(other *CountMin) error {
	if other == nil {
		return fmt.Errorf("sketch: merge with nil CountMin")
	}
	if cm.rows != other.rows || cm.cols != other.cols {
		return fmt.Errorf("sketch: merging CountMins with different dimensions (%dx%d vs %dx%d)",
			cm.rows, cm.cols, other.rows, other.cols)
	}
	for r := range cm.hs {
		if !cm.hs[r].Equal(other.hs[r]) {
			return fmt.Errorf("sketch: merging CountMins with different hash functions (same seed/params required)")
		}
	}
	for r := range cm.table {
		row, orow := cm.table[r], other.table[r]
		for c := range row {
			row[c] += orow[c]
			if a := row[c]; a > cm.maxAbs {
				cm.maxAbs = a
			} else if -a > cm.maxAbs {
				cm.maxAbs = -a
			}
		}
	}
	cm.total += other.total
	if other.maxAbs > cm.maxAbs {
		cm.maxAbs = other.maxAbs
	}
	return nil
}

// Clone returns a deep copy sharing the hash functions.
func (cm *CountMin) Clone() *CountMin {
	c := cm.SameHashes()
	for r := range cm.table {
		copy(c.table[r], cm.table[r])
	}
	c.maxAbs, c.total = cm.maxAbs, cm.total
	return c
}

// SpaceBits charges counters at stream-mass capacity (see
// CountSketch.SpaceBits) plus hash seeds.
func (cm *CountMin) SpaceBits() int64 {
	mass := cm.maxAbs // counters are nonneg-dominated; capacity is total mass
	if cm.total > mass {
		mass = cm.total
	}
	perCounter := int64(nt.BitsFor(uint64(mass))) + 1
	var seeds int64
	for _, h := range cm.hs {
		seeds += h.SpaceBits()
	}
	return int64(cm.rows)*int64(cm.cols)*perCounter + seeds
}
