// Package nt provides the number-theoretic substrate used throughout the
// bounded-deletion streaming library: 64-bit modular arithmetic built on
// 128-bit intrinsics, deterministic Miller-Rabin primality testing, and
// random prime selection from an interval [D, D^3].
//
// The paper (Jayaram & Woodruff, PODS 2018) relies on random primes in two
// places: hashing sampled universes down to a small prime field while
// preserving distinctness (Theorem 2, Lemma 16), and storing counters
// modulo a random prime so that nonzero frequencies stay nonzero with high
// probability (Lemma 16, Lemma 19). Both arguments need only the density
// of primes and the fact that an integer x has at most log(x) prime
// factors, which the helpers here make concrete.
package nt

import (
	"errors"
	"math/bits"
	"math/rand"
)

// MersennePrime61 is 2^61 - 1, the modulus backing every k-wise independent
// hash family in this library. It exceeds any frequency magnitude mM the
// library supports, so frequencies embed into the field without loss.
const MersennePrime61 = (1 << 61) - 1

// MulMod returns (a * b) mod m using a full 128-bit intermediate product,
// so it is exact for all uint64 inputs with m > 0.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// AddMod returns (a + b) mod m without overflow for any a, b < m.
func AddMod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	if a >= m-b && b != 0 {
		return a - (m - b)
	}
	return a + b
}

// PowMod returns a^e mod m by square-and-multiply. PowMod(0, 0, m) == 1.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return result
}

// MulModMersenne61 returns (a * b) mod (2^61 - 1) using the fast Mersenne
// reduction. Inputs must already be reduced (< 2^61 - 1).
func MulModMersenne61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo. With 2^61 ≡ 1 (mod p):
	// result ≡ hi*8 + (lo >> 61) + (lo & p) (mod p). hi < 2^58 since
	// a, b < 2^61, so hi*8 < 2^61 and the sum below fits in 64 bits.
	sum := (hi << 3) | (lo >> 61)
	sum += lo & MersennePrime61
	if sum >= MersennePrime61 {
		sum -= MersennePrime61
	}
	if sum >= MersennePrime61 {
		sum -= MersennePrime61
	}
	return sum
}

// AddModMersenne61 returns (a + b) mod (2^61 - 1) for reduced inputs.
func AddModMersenne61(a, b uint64) uint64 {
	sum := a + b
	if sum >= MersennePrime61 {
		sum -= MersennePrime61
	}
	return sum
}

// MulAddLazyMersenne61 performs one Horner step a*x + c over the
// Mersenne field in LAZY form: a may be any value below 2^62 (e.g. a
// previous lazy result), x and c must be reduced, and the result is
// congruent to a*x + c mod p but only guaranteed below 2^61 + 3 — so
// chained steps skip the conditional subtraction entirely and a single
// ReduceLazyMersenne61 at the end of the chain produces the canonical
// value. This shaves the data-dependent branch from every interior
// Horner step of the row-sweep hot path.
func MulAddLazyMersenne61(a, x, c uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	s := ((hi << 3) | (lo >> 61)) + ((lo & MersennePrime61) + c)
	return (s >> 61) + (s & MersennePrime61)
}

// ReduceLazyMersenne61 maps a lazy value (< 2^62) to its canonical
// representative in [0, 2^61 - 1).
func ReduceLazyMersenne61(v uint64) uint64 {
	v = (v >> 61) + (v & MersennePrime61)
	if v >= MersennePrime61 {
		v -= MersennePrime61
	}
	return v
}

// MulAddModMersenne61 returns (a*x + c) mod (2^61 - 1) for reduced
// inputs — one Horner step with a single final conditional subtraction
// instead of the three a separate MulMod + AddMod chain performs. The
// intermediate sums stay lazy: s1 = fold(a*x) < 2^62, s2 = s1 + c <
// 3*2^61, and folding s2's bit 61+ overflow back (2^61 ≡ 1 mod p)
// leaves a value below p + 3, so one subtraction fully reduces.
func MulAddModMersenne61(a, x, c uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	s := ((hi << 3) | (lo >> 61)) + (lo & MersennePrime61) + c
	s = (s >> 61) + (s & MersennePrime61)
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// MulAddLazyMersenne61Halves performs the same lazy Horner step as
// MulAddLazyMersenne61, but through the 32-bit-halves product
// decomposition the AVX2 kernels use (VPMULUDQ multiplies 32-bit lane
// halves; there is no 64x64 vector multiply). With a = aH*2^32 + aL and
// x = xH*2^32 + xL:
//
//	a*x = aH*xH*2^64 + (aL*xH + aH*xL)*2^32 + aL*xL
//
// and with 2^64 ≡ 8, 2^61 ≡ 1 (mod p) each term folds independently:
// the cross term t12 = aL*xH + aH*xL splits at bit 29 so that
// t12*2^32 = (t12>>29)*2^61 + (t12 & (2^29-1))*2^32 ≡ (t12>>29) +
// (t12&(2^29-1))<<32. For a < 2^62 and x < 2^61 + 7 every intermediate
// fits 64 bits and the folded sum stays below 2^64, so the final
// (s>>61) + (s&p) fold returns a lazy value < 2^61 + 8 — a different
// representative than MulAddLazyMersenne61's in general, but the same
// residue, so the canonical values agree after ReduceLazyMersenne61.
// This function is the scalar oracle the vector kernels are
// differentially tested against.
func MulAddLazyMersenne61Halves(a, x, c uint64) uint64 {
	aL, aH := a&0xFFFFFFFF, a>>32
	xL, xH := x&0xFFFFFFFF, x>>32
	t0 := aL * xL
	t12 := aL*xH + aH*xL
	t3 := aH * xH
	s := (t3 << 3) + (t0 & MersennePrime61) + (t0 >> 61) +
		(t12 >> 29) + (t12&(1<<29-1))<<32 + c
	return (s >> 61) + (s & MersennePrime61)
}

// millerRabinWitnesses is a deterministic witness set valid for all
// 64-bit integers (Sinclair's seven-base set).
var millerRabinWitnesses = [...]uint64{2, 325, 9375, 28178, 450775, 9780504, 1795265022}

// IsPrime reports whether n is prime. It is deterministic and exact for
// every uint64 value.
func IsPrime(n uint64) bool {
	switch {
	case n < 2:
		return false
	case n < 4:
		return true
	case n%2 == 0:
		return false
	}
	// Write n-1 = d * 2^r with d odd.
	d := n - 1
	r := uint(0)
	for d%2 == 0 {
		d /= 2
		r++
	}
	for _, a := range millerRabinWitnesses {
		a %= n
		if a == 0 {
			continue
		}
		x := PowMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := uint(0); i < r-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// ErrNoPrime is returned when an interval contains no prime (possible only
// for tiny or empty intervals).
var ErrNoPrime = errors.New("nt: no prime in interval")

// RandomPrime returns a uniformly-ish random prime in [lo, hi] using the
// provided source: it samples random candidates and tests primality,
// falling back to a linear scan if sampling repeatedly fails. This mirrors
// the paper's "pick a random prime in [D, D^3]" steps (Theorem 2,
// Lemma 16, Lemma 19).
func RandomPrime(rng *rand.Rand, lo, hi uint64) (uint64, error) {
	if lo > hi {
		return 0, ErrNoPrime
	}
	if lo < 2 {
		lo = 2
	}
	span := hi - lo + 1
	// By the prime number theorem a random candidate is prime with
	// probability about 1/ln(hi); 64*ln(hi) < 64*45 attempts make the
	// failure probability negligible before we fall back to scanning.
	attempts := 4096
	for i := 0; i < attempts; i++ {
		c := lo + uint64(rng.Int63n(int64(min64(span, 1<<62))))
		if c > hi {
			continue
		}
		if c%2 == 0 {
			if c == 2 {
				return 2, nil
			}
			c++
			if c > hi {
				continue
			}
		}
		if IsPrime(c) {
			return c, nil
		}
	}
	// Deterministic fallback: scan upward from a random start, wrapping.
	start := lo + uint64(rng.Int63n(int64(min64(span, 1<<62))))
	for c := start; c <= hi; c++ {
		if IsPrime(c) {
			return c, nil
		}
	}
	for c := lo; c < start; c++ {
		if IsPrime(c) {
			return c, nil
		}
	}
	return 0, ErrNoPrime
}

// Log2Ceil returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func Log2Ceil(n uint64) int {
	if n <= 1 {
		return 0
	}
	return 64 - bits.LeadingZeros64(n-1)
}

// Log2Floor returns floor(log2(n)) for n >= 1, and 0 for n == 0.
func Log2Floor(n uint64) int {
	if n == 0 {
		return 0
	}
	return 63 - bits.LeadingZeros64(n)
}

// BitsFor returns the number of bits needed to represent the magnitude v,
// i.e. ceil(log2(1+v)); it is the cost model used by SpaceBits accounting.
func BitsFor(v uint64) int {
	if v == 0 {
		return 1
	}
	return 64 - bits.LeadingZeros64(v)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
