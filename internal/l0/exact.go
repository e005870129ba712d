// Package l0 implements the paper's Section 6 (L0 estimation) and its
// substrates:
//
//   - ExactSmall: the exact small-F0 / small-L0 structures of Lemmas 19
//     and 21 — perfect-hash the few live identities, keep counters modulo
//     a random prime so cancellations are visible, report LARGE beyond
//     the promised bound.
//   - RoughF0: a non-decreasing O(1)-factor overestimate of F0 valid at
//     every point in the stream (the paper cites [40]'s RoughF0Est,
//     Lemma 18; rough.go documents our Flajolet-Martin-style
//     substitution). On an L0 alpha-property stream this doubles as
//     alphaStreamRoughL0Est (Corollary 2): L0_t <= R_t <= O(alpha) L0.
//   - RoughL0: the constant-factor L0 estimator at stream end (Lemma 14
//     baseline; Lemma 20's windowed variant keeps only O(log alpha)
//     levels live).
//   - Estimator: the balls-into-bins (1 +- eps) L0 sketch — Figure 6
//     (all log n rows; the unbounded-deletion KNW baseline) and Figure 7
//     (only O(log(alpha/eps)) rows around the rough estimate; the
//     alpha-property algorithm of Theorem 10).
package l0

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
)

// ExactSmall counts distinct live identities exactly while their number
// stays at most c (Lemmas 19/21): identities are pairwise-hashed into
// [C] for C = Theta(c^2) (perfect hashing whp), and each occupied bucket
// keeps its frequency modulo a random prime so deletions cancel honestly.
// Beyond c occupied buckets it reports LARGE, and LARGE is a latch: no
// answer reads the counters again, so they are dropped, later updates
// stop at the latch test and the encoding lists no counters.
type ExactSmall struct {
	c        int
	hash     *hash.KWise
	buckets  uint64
	prime    uint64
	counters bucketTable // occupied bucket -> frequency mod prime
	overflow bool
	maxLive  int
}

// bucketTable maps the occupied buckets to their counters: a flat
// open-addressed table on the Fibonacci hash, linear probing,
// backward-shift delete (the idiom of topk.Tracker's index), so the
// per-update lookup is a multiply and a compare instead of a Go map
// access. A live counter is never zero, so a zero count marks a free
// cell, and a counter that returns to zero leaves no tombstone.
type bucketTable struct {
	cells []bucketCell // power-of-two length, at most three quarters full
	n     int          // occupied cells
	shift uint         // 64 - log2(len(cells))
}

type bucketCell struct {
	bucket, count uint64
}

// newBucketTable returns a table that holds n counters without growing.
// A table starts small and doubles as it fills, as the map it replaced
// did: most of a RoughL0's levels hold a handful of counters, and a
// table sized for the promise bound up front made the state a
// fourteenth larger.
func newBucketTable(n int) bucketTable {
	log := max(3, bits.Len(uint(max(0, 4*n-1)/3))) // the least power of two >= 4n/3
	return bucketTable{cells: make([]bucketCell, 1<<log), shift: uint(64 - log)}
}

func (t *bucketTable) home(b uint64) uint64 { return b * 0x9E3779B97F4A7C15 >> t.shift }

// find returns the index of bucket b's cell: its own when it is
// occupied, else the free cell an insertion fills.
func (t *bucketTable) find(b uint64) uint64 {
	mask := uint64(len(t.cells) - 1)
	i := t.home(b)
	for t.cells[i].count != 0 && t.cells[i].bucket != b {
		i = (i + 1) & mask
	}
	return i
}

// addMod folds v into the counter of bucket b — cell i = find(b), which
// the caller has probed — modulo prime and reports whether that occupied
// a new cell. A counter that reaches zero frees its cell. The table
// doubles when an insertion would fill it past three quarters; it never
// shrinks, so a structure whose live set has peaked allocates no more.
func (t *bucketTable) addMod(i, b, v, prime uint64) (inserted bool) {
	cur := t.cells[i].count
	nv := addReduced(cur, v, prime) // counters and residues both are
	switch {
	case nv == 0:
		if cur != 0 {
			t.del(i)
		}
	case cur != 0:
		t.cells[i].count = nv
	default:
		if 4*(t.n+1) > 3*len(t.cells) {
			old := t.cells
			*t = newBucketTable(3 * len(old) / 2) // twice the cells
			for _, c := range old {
				if c.count != 0 {
					t.cells[t.find(c.bucket)] = c
					t.n++
				}
			}
			i = t.find(b)
		}
		t.cells[i] = bucketCell{bucket: b, count: nv}
		t.n++
		return true
	}
	return false
}

// del frees the occupied cell i and closes the hole: each later cell
// of the probe chain moves back unless its home lies cyclically within
// (hole, cell], where it already sits as early as it can.
func (t *bucketTable) del(i uint64) {
	mask := uint64(len(t.cells) - 1)
	t.n--
	for j := i; ; {
		t.cells[i].count = 0
		for {
			j = (j + 1) & mask
			if t.cells[j].count == 0 {
				return
			}
			if h := t.home(t.cells[j].bucket); (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		t.cells[i] = t.cells[j]
		i = j
	}
}

// buckets returns the occupied buckets in ascending order, the order
// the "0E" encoding lists them in.
func (t *bucketTable) buckets() []uint64 {
	out := make([]uint64, 0, t.n)
	for _, c := range t.cells {
		if c.count != 0 {
			out = append(out, c.bucket)
		}
	}
	slices.Sort(out)
	return out
}

// NewExactSmall builds the structure for the promise bound c. The prime
// is drawn from [P, P^3] with P = 100*c*log(mM) ~ 100*c*64 as in
// Lemma 19, so p divides a nonzero frequency with probability O(1/c^2).
func NewExactSmall(rng *rand.Rand, c int) *ExactSmall {
	if c < 1 {
		panic(fmt.Sprintf("l0: ExactSmall needs c >= 1, got %d", c))
	}
	pLo := uint64(100 * c * 64)
	p, err := nt.RandomPrime(rng, pLo, pLo*pLo*pLo)
	if err != nil {
		panic("l0: no prime available: " + err.Error())
	}
	return &ExactSmall{
		c:        c,
		hash:     hash.NewPairwise(rng),
		buckets:  uint64(4 * c * c),
		prime:    p,
		counters: newBucketTable(0),
	}
}

// Update feeds one stream update.
func (e *ExactSmall) Update(i uint64, delta int64) {
	if delta == 0 {
		return
	}
	e.updateBucket(e.hash.Range(i, e.buckets), delta)
}

// UpdateColumn feeds a batch: the bucket hash is batch-evaluated over
// the plan's distinct keys into col (at least that many entries) and
// the updates apply IN ORDER through their ordinals (the overflow latch
// and maxLive depend on it). State is identical to per-item Update. A
// latched structure hashes nothing.
func (e *ExactSmall) UpdateColumn(b *core.Batch, col []uint64) {
	if e.overflow {
		return
	}
	keys, slot := core.Distinct(b)
	e.hash.RangeBatch(keys, e.buckets, col)
	for j, d := range b.Delta {
		if d != 0 {
			e.updateBucket(col[slot[j]], d)
		}
	}
}

// updateBucket adds a nonzero delta to bucket b; a latched structure
// ignores it.
func (e *ExactSmall) updateBucket(b uint64, delta int64) {
	if e.overflow {
		return
	}
	t := &e.counters
	i := t.find(b) // one probe serves the overflow test and the add
	if t.n >= e.c && t.cells[i].count == 0 {
		e.latch()
		latches.Inc()
		return
	}
	if t.addMod(i, b, residue(delta, e.prime), e.prime) && t.n > e.maxLive {
		e.maxLive = t.n
	}
}

// residue embeds a signed delta into the integers mod m: delta %
// int64(m), lifted into [0, m). A delta of magnitude below m — every
// unit update — needs no division.
func residue(delta int64, m uint64) uint64 {
	sign := delta >> 63
	if m < 1<<63 && uint64((delta^sign)-sign) < m {
		return uint64(delta) + uint64(sign)&m
	}
	dm := delta % int64(m)
	if dm < 0 {
		dm += int64(m)
	}
	return uint64(dm) % m // a no-op below 2^63, where the signed form is sound
}

// addReduced is nt.AddMod for operands already below m: no division.
func addReduced(a, b, m uint64) uint64 {
	if a >= m-b && b != 0 {
		return a - (m - b)
	}
	return a + b
}

// Count returns (L0, true) when the structure can answer exactly, or
// (0, false) when it observed more than c live identities (LARGE).
func (e *ExactSmall) Count() (int64, bool) {
	if e.overflow {
		return 0, false
	}
	return int64(e.counters.n), true
}

// CountSaturating returns the exact count when available and c+1 when
// the structure overflowed — the form RoughL0's per-level test consumes.
func (e *ExactSmall) CountSaturating() int64 {
	if n, ok := e.Count(); ok {
		return n
	}
	return int64(e.c) + 1
}

// latch makes the answer LARGE for good and drops the counters.
func (e *ExactSmall) latch() {
	e.overflow = true
	e.counters = bucketTable{}
}

// Merge folds another ExactSmall built from the same seed into this
// one: per-bucket counters add modulo the shared prime (cancellations
// stay honest), and the structure latches if either side has latched
// or the combined live set exceeds the promise bound. Once a side has
// latched the union's live count is no longer visible, so maxLive
// becomes the larger of the two sides'.
func (e *ExactSmall) Merge(other *ExactSmall) error {
	if other == nil {
		return fmt.Errorf("l0: merge with nil ExactSmall")
	}
	if e.c != other.c || e.buckets != other.buckets {
		return fmt.Errorf("l0: merging ExactSmall structures with different wiring (same seed/params required)")
	}
	if e.overflow || other.overflow {
		e.latch()
	} else {
		for _, c := range other.counters.cells {
			if c.count != 0 {
				e.counters.addMod(e.counters.find(c.bucket), c.bucket, c.count, e.prime)
			}
		}
		e.maxLive = max(e.maxLive, e.counters.n)
		if e.counters.n > e.c {
			e.latch()
		}
	}
	e.maxLive = max(e.maxLive, other.maxLive)
	return nil
}

// CloneInto returns a deep copy sharing the (immutable) hash function,
// written into dst (nil: a new one), an earlier copy nobody else holds.
func (e *ExactSmall) CloneInto(dst *ExactSmall) *ExactSmall {
	dst = core.OrNew(dst)
	c := *e
	c.counters.cells = append(dst.counters.cells[:0], e.counters.cells...)
	*dst = c
	return dst
}

// SpaceBits charges the occupied (bucket id, counter) pairs at their
// widths plus the hash seed and prime: O(c(log c + log log n) + log n).
func (e *ExactSmall) SpaceBits() int64 {
	perPair := int64(nt.BitsFor(e.buckets)) + int64(nt.BitsFor(e.prime))
	return int64(e.maxLive)*perPair + e.hash.SpaceBits() + int64(nt.BitsFor(e.prime))
}
