// Package sparse implements exact s-sparse recovery (the paper's
// Lemma 22, cited from Jowhari-Saglam-Tardos): a linear sketch of
// O(s log n) bits from which an s-sparse frequency vector can be
// recovered exactly with high probability, and which reports DENSE when
// the vector is not s-sparse.
//
// The construction is an invertible Bloom lookup table (IBLT) over the
// Mersenne field: three pairwise-independent bucket choices per item,
// each cell holding
//
//	count  = sum of f_x over items x in the cell     (int64)
//	keySum = sum of f_x * x        mod p             (field)
//	fpSum  = sum of f_x * fp(x)    mod p             (field)
//
// A cell is a verified singleton when keySum/count names an in-range key
// that hashes to that cell and whose fingerprint matches fpSum/count;
// peeling verified singletons recovers the vector. Fingerprints make a
// false peel a 1/p event, so failures surface as DENSE rather than as
// wrong answers. The sketch is linear: Add/Sub combine sketches
// coordinate-wise, which Figure 8's suffix-vector trick relies on.
package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/stream"
)

// ErrDense is returned by Decode when the sketched vector is (probably)
// not s-sparse, matching Lemma 22's DENSE output.
var ErrDense = errors.New("sparse: vector is not s-sparse")

const subtables = 3

// Recovery is the invertible sketch.
type Recovery struct {
	capacity int    // s: the sparsity the sketch must recover
	universe uint64 // keys are in [0, universe)
	perTable int    // cells per subtable
	hs       [subtables]*hash.KWise
	fp       *hash.KWise
	cells    []cell // subtables concatenated
	maxCount int64  // the counts' peak (the peak rule, doc.go)
}

type cell struct {
	count  int64
	keySum uint64 // mod p
	fpSum  uint64 // mod p
}

// NewRecovery allocates a sketch able to recover capacity-sparse vectors
// over [0, universe) with high probability. Total cell count is about
// 2.4 * capacity (the 3-partite peeling threshold with margin for small
// capacities).
func NewRecovery(rng *rand.Rand, capacity int, universe uint64) *Recovery {
	if capacity < 1 {
		panic(fmt.Sprintf("sparse: capacity must be >= 1, got %d", capacity))
	}
	per := perTableFor(capacity)
	r := &Recovery{
		capacity: capacity,
		universe: universe,
		perTable: per,
		fp:       hash.NewFourWise(rng),
		cells:    make([]cell, subtables*per),
	}
	for i := range r.hs {
		r.hs[i] = hash.NewPairwise(rng)
	}
	return r
}

// perTableFor returns the cells per subtable of a capacity-s sketch:
// 0.8 * s, i.e. 2.4s cells in total, and never fewer than four.
func perTableFor(capacity int) int {
	return max(4, (8*capacity+9)/10)
}

// bucket returns the cell index of key x in subtable t.
func (r *Recovery) bucket(t int, x uint64) int {
	return t*r.perTable + int(r.hs[t].Range(x, uint64(r.perTable)))
}

// Update adds delta to coordinate x.
func (r *Recovery) Update(x uint64, delta int64) {
	if delta == 0 {
		return
	}
	var cells [subtables]uint32
	for t := range cells {
		cells[t] = uint32(r.bucket(t, x))
	}
	e := MakeEntry(x, delta, r.fp.Field(x), cells[:])
	r.Apply(&e)
}

// Entry is one update with every hash-derived quantity evaluated: the
// three cell indices and the two field terms its cells accumulate. An
// entry depends only on the hash functions, so one entry serves every
// sketch that shares them (Sibling, CloneInto) — the support sampler builds
// an update's entry once and applies it to each of its live levels.
type Entry struct {
	delta   int64
	keyTerm uint64 // delta * x      mod p
	fpTerm  uint64 // delta * fp(x)  mod p
	cell    [subtables]uint32
}

// MakeEntry returns the entry of update (x, delta) from x's hashes as
// HashColumn fills them: its fingerprint and its three cell indices.
func MakeEntry(x uint64, delta int64, fpx uint64, cells []uint32) Entry {
	dm := fieldOf(delta)
	return Entry{
		delta:   delta,
		keyTerm: nt.MulModMersenne61(dm, x%nt.MersennePrime61),
		fpTerm:  nt.MulModMersenne61(dm, fpx),
		cell:    [subtables]uint32(cells),
	}
}

// HashColumn hashes a key column — a batch's distinct keys — once for
// every update that carries one of them: fp[j] receives the fingerprint
// of keys[j] and cells[3j:3j+3] its three cell indices, batch-evaluated.
// col is scratch; col and fp hold at least len(keys) entries, cells
// three times as many.
func (r *Recovery) HashColumn(keys, col, fp []uint64, cells []uint32) {
	col = col[:len(keys)]
	r.fp.FieldBatch(keys, fp)
	for t := 0; t < subtables; t++ {
		r.hs[t].RangeBatch(keys, uint64(r.perTable), col)
		base := uint32(t * r.perTable)
		for j, b := range col {
			cells[subtables*j+t] = base + uint32(b)
		}
	}
}

// Apply adds a pre-hashed update; cells and maxCount end exactly as
// Update would leave them.
func (r *Recovery) Apply(e *Entry) {
	for _, ci := range e.cell {
		c := &r.cells[ci]
		c.count += e.delta
		c.keySum = nt.AddModMersenne61(c.keySum, e.keyTerm)
		c.fpSum = nt.AddModMersenne61(c.fpSum, e.fpTerm)
		if a := stream.Abs64(c.count); a > r.maxCount {
			r.maxCount = a
		}
	}
}

// UpdateColumns applies a pre-planned columnar batch: the fingerprint
// column is batch-evaluated once, then each subtable batch-evaluates
// its bucket column and sweeps its cells — sequential column reads
// against one subtable's cache-resident cells. Counter and field adds
// commute and every cell sees its writes in batch order, so cells and
// maxCount are bit-identical to the scalar path.
func (r *Recovery) UpdateColumns(b *core.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	idx, deltas := b.Idx, b.Delta
	col := b.Col64(2 * n)
	fpx, buck := col[:n:n], col[n:]
	r.fp.FieldBatch(idx, fpx)
	for t := 0; t < subtables; t++ {
		r.hs[t].RangeBatch(idx, uint64(r.perTable), buck)
		base := t * r.perTable
		for j, x := range idx {
			delta := deltas[j]
			if delta == 0 {
				continue
			}
			dm := fieldOf(delta)
			c := &r.cells[base+int(buck[j])]
			c.count += delta
			c.keySum = nt.AddModMersenne61(c.keySum, nt.MulModMersenne61(dm, x%nt.MersennePrime61))
			c.fpSum = nt.AddModMersenne61(c.fpSum, nt.MulModMersenne61(dm, fpx[j]))
			if a := stream.Abs64(c.count); a > r.maxCount {
				r.maxCount = a
			}
		}
	}
}

// Add accumulates another sketch with identical hash functions and
// dimensions (one returned by Sibling, or built from the same seed).
func (r *Recovery) Add(other *Recovery) { r.combine(other, 1) }

// Sub subtracts another sketch with identical hash functions.
func (r *Recovery) Sub(other *Recovery) { r.combine(other, -1) }

func (r *Recovery) combine(other *Recovery, sign int64) {
	if other.perTable != r.perTable {
		panic("sparse: combining sketches of different dimensions")
	}
	for i := range r.cells {
		oc := other.cells[i]
		ks, fs := oc.keySum, oc.fpSum
		if sign < 0 {
			ks = nt.MersennePrime61 - ks
			if ks == nt.MersennePrime61 {
				ks = 0
			}
			fs = nt.MersennePrime61 - fs
			if fs == nt.MersennePrime61 {
				fs = 0
			}
		}
		r.cells[i].count += sign * oc.count
		r.cells[i].keySum = nt.AddModMersenne61(r.cells[i].keySum, ks)
		r.cells[i].fpSum = nt.AddModMersenne61(r.cells[i].fpSum, fs)
		if a := stream.Abs64(r.cells[i].count); a > r.maxCount {
			r.maxCount = a
		}
	}
}

// Merge folds another sketch built from the same seed into this one by
// cell-wise addition — the sketch is linear, so the result sketches the
// sum of the two frequency vectors exactly. Both must have been built
// with the same capacity and universe, which the owner's Config and
// options check vouches for.
func (r *Recovery) Merge(other *Recovery) error {
	if other == nil || other.perTable != r.perTable {
		return errors.New("sparse: merge with a nil sketch or one of another capacity")
	}
	r.combine(other, 1)
	r.maxCount = max(r.maxCount, other.maxCount)
	return nil
}

// CloneInto returns a deep copy sharing the (immutable) hash functions,
// written into dst (nil: a new one), an earlier copy nobody else holds.
func (r *Recovery) CloneInto(dst *Recovery) *Recovery {
	dst = core.OrNew(dst)
	c := *r
	c.cells = append(dst.cells[:0], r.cells...)
	*dst = c
	return dst
}

// Sibling returns an empty sketch sharing hash functions and dimensions,
// so the two may later be combined with Add/Sub.
func (r *Recovery) Sibling() *Recovery {
	s := &Recovery{
		capacity: r.capacity,
		universe: r.universe,
		perTable: r.perTable,
		hs:       r.hs,
		fp:       r.fp,
		cells:    make([]cell, subtables*r.perTable),
	}
	return s
}

// Pair is one coordinate of a decoded vector.
type Pair struct {
	Key   uint64
	Count int64
}

// Scratch is the caller-owned working state of DecodeInto: the copy of
// the cells that gets peeled, the worklist and the recovered pairs. The
// zero value is ready; one Scratch serves any number of decodes, of any
// sketches, one at a time, and stops allocating once it has grown to the
// largest of them.
type Scratch struct {
	cells []cell
	work  []uint32
	pairs []Pair
}

// DecodeInto recovers the sketched vector if it is capacity-sparse and
// returns ErrDense when peeling stalls or the vector exceeds capacity.
// It reads the sketch and writes only s, so any number of goroutines
// may decode one sketch at once, each with its own Scratch. The pairs —
// ascending distinct keys, nonzero counts — alias s and stay valid until
// its next decode.
func (r *Recovery) DecodeInto(s *Scratch) ([]Pair, error) {
	pairs, peels, err := r.peel(s)
	recordDecode(err == nil, peels)
	return pairs, err
}

// peel is the decode kernel; peels counts the singletons it removed,
// whatever the verdict.
func (r *Recovery) peel(s *Scratch) (pairs []Pair, peels int, err error) {
	// An honest peel empties its cell for good, so an honest sketch
	// peels at most once per cell; crafted cells can trade one key back
	// and forth for ever and are cut off there. The worklist is seeded
	// with at most every cell and grows by two per peel.
	n := len(r.cells)
	s.cells = append(s.cells[:0], r.cells...)
	if cap(s.work) < subtables*n {
		s.work = make([]uint32, 0, subtables*n)
	}
	if cap(s.pairs) < n {
		s.pairs = make([]Pair, 0, n)
	}
	cells, work, pairs := s.cells, s.work[:0], s.pairs[:0]
	// One sweep seeds the worklist; after it a cell can only become a
	// singleton when a peel changes it, so a peel queues the two other
	// cells it touched and nothing is swept again.
	for ci := range cells {
		if cells[ci].count != 0 {
			work = append(work, uint32(ci))
		}
	}
	limit := divisionLimit(r.universe)
	for head := 0; head < len(work); head++ {
		ci := int(work[head])
		x, fpx, ok := r.singleton(&cells[ci], ci, limit)
		if !ok {
			continue
		}
		if len(pairs) == n {
			return nil, n, ErrDense
		}
		count := cells[ci].count
		pairs = append(pairs, Pair{x, count})
		// Negated in the field, not in int64, where -MinInt64 overflows.
		dm := fieldOf(count)
		if dm != 0 {
			dm = nt.MersennePrime61 - dm
		}
		keyTerm := nt.MulModMersenne61(dm, x%nt.MersennePrime61)
		fpTerm := nt.MulModMersenne61(dm, fpx)
		for t := 0; t < subtables; t++ {
			cj := r.bucket(t, x)
			c := &cells[cj]
			c.count -= count
			c.keySum = nt.AddModMersenne61(c.keySum, keyTerm)
			c.fpSum = nt.AddModMersenne61(c.fpSum, fpTerm)
			if cj != ci && c.count != 0 {
				work = append(work, uint32(cj))
			}
		}
	}
	peels = len(pairs)
	for _, c := range cells {
		if c != (cell{}) {
			return nil, peels, ErrDense
		}
	}
	// Only a false peel (a 1/p event) or crafted cells peel one key
	// twice; folding repeats keeps the vector exact even then.
	slices.SortFunc(pairs, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	pairs = foldRepeats(pairs)
	if len(pairs) > r.capacity {
		return nil, peels, ErrDense
	}
	return pairs, peels, nil
}

// foldRepeats sums the counts of equal keys in key-sorted pairs, in
// place, and drops the keys whose counts cancel.
func foldRepeats(pairs []Pair) []Pair {
	out := pairs[:0]
	for _, p := range pairs {
		if last := len(out) - 1; last >= 0 && out[last].Key == p.Key {
			if out[last].Count += p.Count; out[last].Count == 0 {
				out = out[:last]
			}
			continue
		}
		out = append(out, p)
	}
	return out
}

// CountOf returns key's count in a decoded vector — pairs as DecodeInto
// returns them — and 0 when the vector does not hold it.
func CountOf(pairs []Pair, key uint64) int64 {
	i, found := slices.BinarySearchFunc(pairs, key, func(p Pair, k uint64) int { return cmp.Compare(p.Key, k) })
	if !found {
		return 0
	}
	return pairs[i].Count
}

// divisionLimit returns the largest |count| for which |count|*x cannot
// wrap mod p for any key x below universe: |count|*(universe-1) < p.
// Zero (no count qualifies) when the universe has no key above 0.
func divisionLimit(universe uint64) uint64 {
	if universe <= 1 {
		return 0
	}
	return (nt.MersennePrime61 - 1) / (universe - 1)
}

// singleton checks whether cell c (index ci) holds exactly one key and,
// if so, returns the key and its fingerprint. The candidate key is
// keySum/count in the field. While |count| is within limit (see
// divisionLimit) count*x did not wrap, so keySum — p - keySum for a
// negative count — is |count|*x as an integer: one division finds x, and
// a remainder means no in-range key explains the cell. Wider counts pay
// the modular inverse.
func (r *Recovery) singleton(c *cell, ci int, limit uint64) (x, fpx uint64, ok bool) {
	if c.count == 0 {
		return 0, 0, false
	}
	a, sum := uint64(c.count), c.keySum
	if c.count < 0 {
		a = -a // 2^63 for MinInt64: above every limit
		if sum != 0 {
			sum = nt.MersennePrime61 - sum
		}
	}
	if a <= limit {
		if x = sum / a; x*a != sum {
			return 0, 0, false
		}
	} else {
		x = nt.MulModMersenne61(c.keySum, inverse(c.count))
	}
	if x >= r.universe {
		return 0, 0, false
	}
	// The key must actually hash to this cell in this subtable.
	if r.bucket(ci/r.perTable, x) != ci {
		return 0, 0, false
	}
	// Fingerprint must verify: fpSum == count * fp(x).
	fpx = r.fp.Field(x)
	if c.fpSum != nt.MulModMersenne61(fieldOf(c.count), fpx) {
		return 0, 0, false
	}
	return x, fpx, true
}

// inverse returns fieldOf(count)^-1 in the Mersenne field (0 for a count
// that is 0 there).
func inverse(count int64) uint64 {
	switch count {
	case 1:
		return 1
	case -1:
		return nt.MersennePrime61 - 1
	}
	// a^(p-2) by the addition chain for p-2 = 2^61 - 3: x_k denotes
	// a^(2^k - 1), built by doubling k, and 2^61 - 3 = 4*(2^59 - 1) + 1.
	// 60 squarings and 11 multiplications with the Mersenne reduction,
	// against the ~120 division-based steps of the generic nt.PowMod.
	mul := nt.MulModMersenne61
	sqr := func(v uint64, times int) uint64 {
		for ; times > 0; times-- {
			v = mul(v, v)
		}
		return v
	}
	a := fieldOf(count)
	x2 := mul(sqr(a, 1), a)
	x3 := mul(sqr(x2, 1), a)
	x6 := mul(sqr(x3, 3), x3)
	x12 := mul(sqr(x6, 6), x6)
	x24 := mul(sqr(x12, 12), x12)
	x48 := mul(sqr(x24, 24), x24)
	x54 := mul(sqr(x48, 6), x6)
	x57 := mul(sqr(x54, 3), x3)
	x59 := mul(sqr(mul(sqr(x57, 1), a), 1), a)
	return mul(sqr(x59, 2), a)
}

// Decode is DecodeInto for a caller that wants a map and keeps no
// scratch (a one-off sync exchange).
func (r *Recovery) Decode() (map[uint64]int64, error) {
	var s Scratch
	pairs, err := r.DecodeInto(&s)
	if err != nil {
		return nil, err
	}
	vec := make(map[uint64]int64, len(pairs))
	for _, p := range pairs {
		vec[p.Key] = p.Count
	}
	return vec, nil
}

// SpaceBits charges each cell a count at observed width plus two 61-bit
// field sums, plus the four hash seeds: the O(s log n) of Lemma 22.
func (r *Recovery) SpaceBits() int64 {
	countBits := int64(nt.BitsFor(uint64(r.maxCount))) + 1
	perCell := countBits + 2*61
	var seeds int64
	for _, h := range r.hs {
		seeds += h.SpaceBits()
	}
	seeds += r.fp.SpaceBits()
	return int64(len(r.cells))*perCell + seeds
}

// fieldOf embeds a signed delta into the Mersenne field.
func fieldOf(d int64) uint64 {
	m := d % int64(nt.MersennePrime61)
	if m < 0 {
		m += int64(nt.MersennePrime61)
	}
	return uint64(m)
}
