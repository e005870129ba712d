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
	"math/rand"

	"repro/internal/hash"
	"repro/internal/nt"
)

// ExactSmall counts distinct live identities exactly while their number
// stays at most c (Lemmas 19/21): identities are pairwise-hashed into
// [C] for C = Theta(c^2) (perfect hashing whp), and each occupied bucket
// keeps its frequency modulo a random prime so deletions cancel honestly.
// Beyond c occupied buckets it reports LARGE.
type ExactSmall struct {
	c        int
	hash     *hash.KWise
	buckets  uint64
	prime    uint64
	counters map[uint64]uint64 // occupied bucket -> frequency mod prime
	overflow bool
	maxLive  int
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
		counters: make(map[uint64]uint64),
	}
}

// Update feeds one stream update.
func (e *ExactSmall) Update(i uint64, delta int64) {
	if delta == 0 {
		return
	}
	e.updateBucket(e.hash.Range(i, e.buckets), delta)
}

// UpdateColumn feeds a column of updates in order, the bucket hash
// batch-evaluated into col (at least len(keys) entries). State is
// identical to per-item Update.
func (e *ExactSmall) UpdateColumn(keys []uint64, deltas []int64, col []uint64) {
	e.hash.RangeBatch(keys, e.buckets, col)
	for j, d := range deltas {
		if d != 0 {
			e.updateBucket(col[j], d)
		}
	}
}

// updateBucket adds a nonzero delta to bucket b.
func (e *ExactSmall) updateBucket(b uint64, delta int64) {
	cur, ok := e.counters[b]
	if !ok {
		if len(e.counters) >= e.c {
			e.overflow = true
			return
		}
	}
	d := delta % int64(e.prime)
	if d < 0 {
		d += int64(e.prime)
	}
	nv := nt.AddMod(cur, uint64(d), e.prime)
	if nv == 0 {
		delete(e.counters, b)
	} else {
		e.counters[b] = nv
		if !ok && len(e.counters) > e.maxLive {
			e.maxLive = len(e.counters)
		}
	}
}

// Count returns (L0, true) when the structure can answer exactly, or
// (0, false) when it observed more than c live identities (LARGE).
func (e *ExactSmall) Count() (int64, bool) {
	if e.overflow {
		return 0, false
	}
	return int64(len(e.counters)), true
}

// CountSaturating returns the exact count when available and c+1 when
// the structure overflowed — the form RoughL0's per-level test consumes.
func (e *ExactSmall) CountSaturating() int64 {
	if n, ok := e.Count(); ok {
		return n
	}
	return int64(e.c) + 1
}

// Merge folds another ExactSmall built from the same seed into this
// one: per-bucket counters add modulo the shared prime (cancellations
// stay honest), and the structure overflows if either side overflowed
// or the combined live set exceeds the promise bound.
func (e *ExactSmall) Merge(other *ExactSmall) error {
	if other == nil {
		return fmt.Errorf("l0: merge with nil ExactSmall")
	}
	if e.c != other.c || e.prime != other.prime || e.buckets != other.buckets || !e.hash.Equal(other.hash) {
		return fmt.Errorf("l0: merging ExactSmall structures with different wiring (same seed/params required)")
	}
	for b, v := range other.counters {
		nv := nt.AddMod(e.counters[b], v, e.prime)
		if nv == 0 {
			delete(e.counters, b)
		} else {
			e.counters[b] = nv
		}
	}
	e.overflow = e.overflow || other.overflow || len(e.counters) > e.c
	if len(e.counters) > e.maxLive {
		e.maxLive = len(e.counters)
	}
	if other.maxLive > e.maxLive {
		e.maxLive = other.maxLive
	}
	return nil
}

// Clone returns a deep copy sharing the (immutable) hash function.
func (e *ExactSmall) Clone() *ExactSmall {
	c := &ExactSmall{
		c:        e.c,
		hash:     e.hash,
		buckets:  e.buckets,
		prime:    e.prime,
		counters: make(map[uint64]uint64, len(e.counters)),
		overflow: e.overflow,
		maxLive:  e.maxLive,
	}
	for b, v := range e.counters {
		c.counters[b] = v
	}
	return c
}

// SpaceBits charges the occupied (bucket id, counter) pairs at their
// widths plus the hash seed and prime: O(c(log c + log log n) + log n).
func (e *ExactSmall) SpaceBits() int64 {
	perPair := int64(nt.BitsFor(e.buckets)) + int64(nt.BitsFor(e.prime))
	return int64(e.maxLive)*perPair + e.hash.SpaceBits() + int64(nt.BitsFor(e.prime))
}
