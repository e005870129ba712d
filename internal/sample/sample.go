// Package sample implements the sampling primitives behind the paper's
// alpha-property algorithms:
//
//   - Bernoulli sampling at dyadic rates 2^-k (CSSS samples each update
//     with probability 2^-p, Figure 2),
//   - binomial thinning Bin(c, 1/2) used to halve CSSS counters at the
//     schedule boundaries t = 2^r log(S) + 1, and Bin(|Delta|, p) used to
//     expand large updates into sampled unit updates (Section 1.3),
//   - the exponential-interval double-buffer schedule of Figure 4 and
//     Theorems 2 and 8, said once as Window (window.go),
//   - Rand, the generator every sampling structure draws them from.
package sample

import (
	"math"
	"math/bits"
	"math/rand"
)

// Rand is a structure's generator, seeded on its first draw: a copy or a
// restored sketch keeps its seed word and builds math/rand's source (4.9
// KB, 10-24 µs to seed) only when it samples, which a read-only view
// never does — the eagerly seeded stream, draw for draw.
type Rand struct {
	r    *rand.Rand
	seed int64
}

// Wrap holds a generator that exists already (a constructor's).
func Wrap(r *rand.Rand) *Rand { return &Rand{r: r} }

// Seeded holds rand.New(rand.NewSource(seed)) until its first draw.
func Seeded(seed int64) *Rand { return &Rand{seed: seed} }

// Get returns the generator, seeding it on the first call.
func (g *Rand) Get() *rand.Rand {
	if g.r == nil {
		g.build()
	}
	return g.r
}

func (g *Rand) build() { g.r = rand.New(rand.NewSource(g.seed)) }

// Dyadic reports true with probability exactly 2^-k (k >= 0; k = 0 always
// true, k >= 64 uses multiple words). This is the "flip log(n) coins
// sequentially" sampler of Theorem 2, implemented with whole words.
func Dyadic(rng *rand.Rand, k int) bool {
	for k > 63 {
		if rng.Uint64() != 0 {
			return false
		}
		k -= 64
	}
	if k <= 0 {
		return true
	}
	return rng.Uint64()&((1<<uint(k))-1) == 0
}

// Half returns an exact sample of Bin(c, 1/2) — the counter-halving
// operation of CSSS (Figure 2, step 5a). For counts up to halfExactLimit
// it uses popcounts of fresh random words (exact); above the limit it
// uses a rounded Gaussian with continuity correction, whose total
// variation error is far below any sketch guarantee at that scale.
func Half(rng *rand.Rand, c int64) int64 {
	if c <= 0 {
		return 0
	}
	if c <= halfExactLimit {
		var successes int64
		for c >= 64 {
			successes += int64(bits.OnesCount64(rng.Uint64()))
			c -= 64
		}
		if c > 0 {
			successes += int64(bits.OnesCount64(rng.Uint64() & ((1 << uint(c)) - 1)))
		}
		return successes
	}
	mean := float64(c) / 2
	sd := math.Sqrt(float64(c)) / 2
	v := math.Round(mean + sd*rng.NormFloat64())
	if v < 0 {
		v = 0
	}
	if v > float64(c) {
		v = float64(c)
	}
	return int64(v)
}

// halfExactLimit bounds the exact popcount path of Half; 1<<22 bits costs
// ~65k words, acceptable for the rare halving events.
const halfExactLimit = 1 << 22

// Binomial returns a sample of Bin(n, p). The implementation is exact for
// all regimes the library exercises: geometric-gap counting when the
// expected count np is small (exact for any p), the popcount path for
// p = 1/2, and symmetry p -> 1-p; only for np beyond binomialExactLimit
// does it fall back to a clamped rounded Gaussian.
func Binomial(rng *rand.Rand, n int64, p float64) int64 {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - Binomial(rng, n, 1-p)
	case p == 0.5:
		return Half(rng, n)
	}
	if float64(n)*p <= binomialExactLimit {
		// Count successes by jumping geometric gaps: the index of the
		// next success after position i is i + Geom(p). Exact.
		//
		// One trial — the strict L1 estimator's coin for a unit Update,
		// almost always a miss (its batches draw once per stretch of
		// units between clock ticks) — is answered from the draw alone
		// when it is clear of the boundary: u < (1-p)(1-2^-48) puts
		// ln u / ln(1-p) above 1 + 2^-48, beyond what one-ulp errors of
		// Log, Log1p and the quotient undo, so the gap is at least 2.
		// The rest take the arithmetic, on that u.
		u := rng.Float64()
		if n == 1 && u < (1-p)*(1-0x1p-48) {
			return 0
		}
		var count int64
		i := int64(0)
		logq := math.Log1p(-p)
		for ; ; u = rng.Float64() {
			if u == 0 {
				u = math.SmallestNonzeroFloat64
			}
			gap := math.Floor(math.Log(u)/logq) + 1
			if gap < 1 { // numerical floor guard
				gap = 1
			}
			// For tiny p the gap can exceed int64.
			if gap >= 1<<63 || int64(gap) > n-i {
				return count
			}
			i += int64(gap)
			count++
		}
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	v := math.Round(mean + sd*rng.NormFloat64())
	if v < 0 {
		v = 0
	}
	if v > float64(n) {
		v = float64(n)
	}
	return int64(v)
}

// binomialExactLimit bounds the expected work of the exact geometric-gap
// path.
const binomialExactLimit = 1 << 16

// ActiveLevels returns the two live levels of the exponential-interval
// schedule with base s at (1-indexed) time t: levels r and r+1 where
// r = floor(log_s t) - 1, clamped at 0. Level j samples updates with
// probability s^-j while t is inside I_j = [s^j, s^{j+2}].
func ActiveLevels(t, s int64) (lo, hi int) {
	if t < 1 || s < 2 {
		return 0, 0
	}
	fl := 0
	v := t
	for v >= s {
		v /= s
		fl++
	}
	hi = fl
	lo = fl - 1
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// Pow returns s^j as int64, saturating at math.MaxInt64 on overflow.
func Pow(s int64, j int) int64 {
	result, limit := int64(1), math.MaxInt64/s
	for i := 0; i < j; i++ {
		if result > limit {
			return math.MaxInt64
		}
		result *= s
	}
	return result
}
