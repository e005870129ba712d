// Package hash implements the k-wise independent hash families that back
// every sketch in this library.
//
// A k-wise independent family over a field F_p is the set of degree-(k-1)
// polynomials with uniform random coefficients: evaluating one polynomial
// at k distinct points yields k independent uniform field values. The
// paper (Jayaram & Woodruff, PODS 2018) uses
//
//   - pairwise independence for subsampling levels (Sections 6 and 7),
//   - 4-wise independence for Count-Sketch rows h_i : [n] -> [6k] and
//     sign functions g_i : [n] -> {-1, +1} (Section 2),
//   - k = Theta(log(1/eps))-wise independence for precision-sampling
//     scaling factors t_i (Section 4) and Cauchy sketch seeds (Section 5).
//
// All families here work over the Mersenne field p = 2^61 - 1, which is
// large enough to treat 64-bit-truncated universe identities as field
// elements (the library constrains universes to n <= 2^60).
//
// # Hot-path layout
//
// The update hot path of every sketch reduces to "evaluate a polynomial,
// map it to a bucket, read off a sign". Three decisions keep that path at
// a handful of multiply-adds:
//
//  1. Horner evaluation is specialized for the dominant k = 2 and k = 4
//     cases, so a row costs one MulModMersenne61 chain with no loop or
//     bounds checks (Field; FieldReference keeps the generic loop as the
//     differential-test oracle).
//  2. Bucket reduction uses Lemire's multiply-shift fast range (Reduce)
//     instead of a 64-bit division: the 61-bit field value is stretched
//     across the full 64-bit range and the high word of value*r is the
//     bucket. Like the % r it replaces, the map is uniform up to a
//     bias below 2^-16 for any r <= 2^44.
//  3. A Count-Sketch row derives bucket AND sign from one 4-wise field
//     evaluation via disjoint bit-fields (BucketSign): the low bit is the
//     sign, the remaining 60 bits feed the bucket reduction. Both margins
//     of a uniform field value are uniform, and any joint event over <= 4
//     distinct keys inherits the 4-wise independence of the underlying
//     polynomial, which is the independence Count-Sketch's analysis
//     consumes (Section 2).
package hash

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/nt"
)

// KWise is a k-wise independent hash function represented as a random
// polynomial of degree k-1 over F_{2^61-1}. The zero value is unusable;
// construct with NewKWise (or the NewPairwise / NewFourWise shorthands).
type KWise struct {
	coeffs []uint64 // degree k-1 polynomial, coeffs[0] is the constant term
}

// NewKWise draws a fresh k-wise independent function using rng. k must be
// at least 1 (k = 1 yields a constant function, k = 2 pairwise, etc.).
func NewKWise(rng *rand.Rand, k int) *KWise {
	if k < 1 {
		panic(fmt.Sprintf("hash: NewKWise requires k >= 1, got %d", k))
	}
	coeffs := make([]uint64, k)
	for i := range coeffs {
		coeffs[i] = rng.Uint64() % nt.MersennePrime61
	}
	// Force a nonzero leading coefficient so the polynomial has true
	// degree k-1; this costs a negligible bias and guards against the
	// degenerate constant polynomial for k >= 2.
	if k >= 2 && coeffs[k-1] == 0 {
		coeffs[k-1] = 1
	}
	return &KWise{coeffs: coeffs}
}

// NewPairwise draws a pairwise (2-wise) independent hash function.
func NewPairwise(rng *rand.Rand) *KWise { return NewKWise(rng, 2) }

// NewFourWise draws a 4-wise independent hash function, the independence
// Count-Sketch requires of both its bucket and sign hashes.
func NewFourWise(rng *rand.Rand) *KWise { return NewKWise(rng, 4) }

// K returns the independence parameter of the family.
func (h *KWise) K() int { return len(h.coeffs) }

// Field evaluates the polynomial at x, returning a value uniform in
// [0, 2^61-1). x is reduced into the field first. The k = 2, 4 and 8
// cases — every subsampling hash, every Count-Sketch row, and the
// precision-sampling scaling hashes — run as straight-line fused
// Horner chains (nt.MulAddModMersenne61); FieldReference is the generic
// oracle they are differentially tested against.
func (h *KWise) Field(x uint64) uint64 {
	return h.fieldReduced(x % nt.MersennePrime61)
}

// fieldReduced evaluates the polynomial at an already-reduced point
// (x < 2^61 - 1), letting row sweeps pay the universe reduction once.
func (h *KWise) fieldReduced(x uint64) uint64 {
	c := h.coeffs
	switch len(c) {
	case 1:
		return c[0]
	case 2:
		return nt.MulAddModMersenne61(c[1], x, c[0])
	case 4:
		acc := nt.MulAddLazyMersenne61(c[3], x, c[2])
		acc = nt.MulAddLazyMersenne61(acc, x, c[1])
		acc = nt.MulAddLazyMersenne61(acc, x, c[0])
		return nt.ReduceLazyMersenne61(acc)
	case 8:
		acc := nt.MulAddLazyMersenne61(c[7], x, c[6])
		acc = nt.MulAddLazyMersenne61(acc, x, c[5])
		acc = nt.MulAddLazyMersenne61(acc, x, c[4])
		acc = nt.MulAddLazyMersenne61(acc, x, c[3])
		acc = nt.MulAddLazyMersenne61(acc, x, c[2])
		acc = nt.MulAddLazyMersenne61(acc, x, c[1])
		acc = nt.MulAddLazyMersenne61(acc, x, c[0])
		return nt.ReduceLazyMersenne61(acc)
	}
	acc := uint64(0)
	for i := len(c) - 1; i >= 0; i-- {
		acc = nt.MulAddModMersenne61(acc, x, c[i])
	}
	return acc
}

// FieldReference evaluates the polynomial with the generic Horner loop,
// bypassing the specialized k = 2 / k = 4 fast paths. It exists as the
// oracle for differential tests; sketches never call it.
func (h *KWise) FieldReference(x uint64) uint64 {
	x %= nt.MersennePrime61
	acc := uint64(0)
	for i := len(h.coeffs) - 1; i >= 0; i-- {
		acc = nt.MulModMersenne61(acc, x)
		acc = nt.AddModMersenne61(acc, h.coeffs[i])
	}
	return acc
}

// Reduce maps a field value v (v < 2^61) uniformly onto [0, r) with
// Lemire's multiply-shift fast range: v is stretched across the full
// 64-bit range and the high 64 bits of v*r are the bucket. It replaces
// the 64-bit division of v % r; for any r <= 2^44 the deviation from
// uniform is below 2^-16, the same order as the modulo bias it replaces,
// and is ignored as standard streaming practice.
func Reduce(v, r uint64) uint64 {
	hi, _ := bits.Mul64(v<<3, r)
	return hi
}

// Range maps x to a bucket in [0, r) via Reduce.
func (h *KWise) Range(x, r uint64) uint64 {
	if r == 0 {
		panic("hash: Range with r == 0")
	}
	return Reduce(h.Field(x), r)
}

// Sign maps x to -1 or +1 using the low bit of the field evaluation. When
// h is 4-wise independent this is the 4-wise sign function g : [n] -> {±1}
// Count-Sketch requires.
func (h *KWise) Sign(x uint64) int {
	if h.Field(x)&1 == 0 {
		return 1
	}
	return -1
}

// BucketSign derives a Count-Sketch row's bucket in [0, r) and ±1 sign
// from ONE field evaluation, using disjoint bit-fields of the 61-bit
// output: the low bit is the sign (matching Sign's convention) and the
// remaining 60 bits feed the fast-range bucket reduction. This halves
// both the evaluation cost and the seed storage of the historical
// two-polynomial (bucket hash, sign hash) row layout.
func (h *KWise) BucketSign(x, r uint64) (uint64, int64) {
	v := h.Field(x)
	hi, _ := bits.Mul64((v>>1)<<4, r)
	return hi, 1 - int64(v&1)<<1
}

// Unit maps x to a scaling factor in (0, 1], the t_i of the paper's
// precision sampling (Section 4). The value is never exactly 0, so z_i =
// f_i / t_i is always finite.
func (h *KWise) Unit(x uint64) float64 {
	v := h.Field(x)
	return (float64(v) + 1) / float64(nt.MersennePrime61)
}

// UnitInv returns 1/t_i = p/(v+1) directly — the precision-sampling
// weight — with a single float division instead of the two that
// 1/Unit(x) costs on the update hot path.
func (h *KWise) UnitInv(x uint64) float64 {
	v := h.Field(x)
	return float64(nt.MersennePrime61) / (float64(v) + 1)
}

// SpaceBits returns the bits needed to store the function: k coefficients
// of 61 bits each, the cost model used throughout the paper.
func (h *KWise) SpaceBits() int64 {
	return int64(len(h.coeffs)) * 61
}

// LSB returns the 0-based index of the least significant set bit of x,
// with the paper's convention LSB(0) = maxBits (Section 6.1 uses
// lsb(0) = log n). maxBits is typically log2(universe size).
func LSB(x uint64, maxBits int) int {
	if x == 0 {
		return maxBits
	}
	return bits.TrailingZeros64(x)
}

// Buckets describes a matrix of d independent row hash functions, the
// Count-Sketch layout shared by Count-Sketch, CSSS and the inner-product
// sketches. Each row is ONE 4-wise polynomial whose single evaluation
// yields both the bucket and the sign (see KWise.BucketSign); the
// historical layout of two polynomials per row cost twice the evaluation
// time and twice the seed space for the same guarantee.
type Buckets struct {
	Rows int
	Cols uint64
	fns  []*KWise // one 4-wise row function: low bit sign, high bits bucket
	// flat holds every row's 4 coefficients contiguously (row i at
	// flat[4i:4i+4]) so the all-rows sweep reads one cache-friendly
	// array instead of chasing a pointer per row.
	flat []uint64
}

// NewBuckets draws d rows of 4-wise independent row hash functions over
// [cols].
func NewBuckets(rng *rand.Rand, rows int, cols uint64) *Buckets {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("hash: NewBuckets(rows=%d, cols=%d)", rows, cols))
	}
	b := &Buckets{Rows: rows, Cols: cols}
	b.fns = make([]*KWise, rows)
	for i := 0; i < rows; i++ {
		b.fns[i] = NewFourWise(rng)
	}
	b.buildFlat()
	return b
}

// buildFlat (re)derives the contiguous coefficient array from fns.
func (b *Buckets) buildFlat() {
	b.flat = make([]uint64, 0, 4*b.Rows)
	for _, f := range b.fns {
		b.flat = append(b.flat, f.coeffs...)
	}
}

// Bucket returns the column index of x in row i.
func (b *Buckets) Bucket(i int, x uint64) uint64 {
	c, _ := b.fns[i].BucketSign(x, b.Cols)
	return c
}

// Sign returns the ±1 sign of x in row i.
func (b *Buckets) Sign(i int, x uint64) int {
	_, s := b.fns[i].BucketSign(x, b.Cols)
	return int(s)
}

// BucketSign returns both the column index and the ±1 sign of x in row
// i from one polynomial evaluation — the hot-path accessor.
func (b *Buckets) BucketSign(i int, x uint64) (uint64, int64) {
	return b.fns[i].BucketSign(x, b.Cols)
}

// BucketSignsInto fills cols[i], signs[i] for every row with x's bucket
// and sign, paying the universe-to-field reduction of x once instead of
// once per row and walking the rows' coefficients as one contiguous
// array. The interior Horner steps use the lazy Mersenne form (no
// conditional subtraction); the single final reduction restores the
// canonical value, bit-identical to the per-row BucketSign path.
func (b *Buckets) BucketSignsInto(x uint64, cols []uint64, signs []int64) {
	xr := x % nt.MersennePrime61
	r := b.Cols
	flat := b.flat
	for i := 0; i < b.Rows; i++ {
		c := flat[4*i : 4*i+4 : 4*i+4]
		acc := nt.MulAddLazyMersenne61(c[3], xr, c[2])
		acc = nt.MulAddLazyMersenne61(acc, xr, c[1])
		acc = nt.MulAddLazyMersenne61(acc, xr, c[0])
		v := nt.ReduceLazyMersenne61(acc)
		hi, _ := bits.Mul64((v>>1)<<4, r)
		cols[i] = hi
		signs[i] = 1 - int64(v&1)<<1
	}
}

// SpaceBits returns the seed storage cost of all rows.
func (b *Buckets) SpaceBits() int64 {
	var total int64
	for i := range b.fns {
		total += b.fns[i].SpaceBits()
	}
	return total
}
