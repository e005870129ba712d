// Package morris implements the Morris approximate counter and the
// paper's loose-but-small analysis of it (Lemma 11): after t events the
// estimate v_t satisfies
//
//	(delta / 12 log m) * t  <=  estimate  <=  t / delta
//
// with probability 1 - delta, using O(log log m) bits. The
// alpha-property L1 estimator (Figure 4) uses a Morris counter as its
// stream-position clock so the whole structure stays below log(n) bits;
// the estimator only needs the clock within a poly(log) factor, exactly
// what Lemma 11 provides.
package morris

import (
	"math"
	"math/rand"

	"repro/internal/nt"
	"repro/internal/sample"
)

// Counter is a single Morris counter. The zero value is not usable;
// construct with New.
type Counter struct {
	rng *sample.Rand
	v   uint8 // the exponent; 2^v - 1 estimates the count, v <= 64
	max uint8 // tracked maximum of v, for space accounting
}

// New returns a fresh Morris counter drawing randomness from rng.
func New(rng *rand.Rand) *Counter {
	return &Counter{rng: sample.Wrap(rng)}
}

// Increment registers one event: v increases with probability 2^-v.
func (c *Counter) Increment() {
	if c.v >= 63 {
		return // saturated; beyond any stream this library produces
	}
	if c.rng.Get().Uint64()&((1<<uint(c.v))-1) == 0 {
		c.bump()
	}
}

// unitMiss[v] is 1 - 2^-v scaled down by 2^-48. A draw u below it has
// ln u / ln(1-p) > 1 + 2^-48, far above what the at most one ulp errors
// of Log, Log1p and their quotient can take away, so Add's geometric
// gap comes out at least 2: one event left cannot succeed. The table
// ends where 1 - 2^-v stops being a float64 below 1.
var unitMiss = func() (t [53]float64) {
	for v := range t {
		t[v] = (1 - math.Ldexp(1, -v)) * (1 - 0x1p-48)
	}
	return t
}()

// Walk registers the head of n events up to the first increment: it
// returns how many it used and whether the last of them incremented v.
// The wait for an increment at exponent v is Geometric(2^-v), one draw;
// a walk that ends without one forgets its gap, which is exact because
// the geometric is memoryless. A unit walk — the L1 estimator's clock
// tick, almost always a miss — is answered from the draw alone when it
// is clear of the boundary (see unitMiss).
func (c *Counter) Walk(n int64) (used int64, ticked bool) {
	switch {
	case n <= 0 || c.v >= 63:
		return max(n, 0), false
	case c.v == 0:
		c.bump()
		return 1, true
	}
	u := c.rng.Get().Float64()
	if n == 1 && int(c.v) < len(unitMiss) && u < unitMiss[c.v] {
		return 1, false
	}
	p := math.Ldexp(1, -int(c.v))
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	gap := math.Floor(math.Log(u)/math.Log1p(-p)) + 1
	if gap < 1 { // numerical floor guard
		gap = 1
	}
	// Compare before converting: from v = 58 an honest gap can exceed
	// int64, and a wrapped one would read as a success.
	if gap >= 1<<63 || int64(gap) > n {
		return n, false // no success within the remaining events
	}
	c.bump()
	return int64(gap), true
}

// Add registers n events at once, exactly distributed as n Increment
// calls: a walk from increment to increment, O(log n) draws, not O(n).
func (c *Counter) Add(n int64) {
	for used, ticked := c.Walk(n); ticked; used, ticked = c.Walk(n) {
		n -= used
	}
}

func (c *Counter) bump() {
	c.v++
	c.max = max(c.max, c.v)
}

// Estimate returns the unbiased estimate 2^v - 1 of the event count.
func (c *Counter) Estimate() int64 {
	return int64(1)<<uint(c.v) - 1
}

// Exponent returns the raw exponent v (the paper indexes sampling levels
// by this value directly).
func (c *Counter) Exponent() int { return int(c.v) }

// State exposes the counter's persistent state (current and maximum
// exponent) for serialization; Restore is the inverse.
func (c *Counter) State() (v, max uint8) { return c.v, c.max }

// Restore rebuilds a counter from serialized State, drawing future
// randomness from rng (also how a structure that embeds a Morris clock
// copies it).
func Restore(rng *sample.Rand, v, max uint8) *Counter {
	return &Counter{rng: rng, v: v, max: max}
}

// SpaceBits returns ceil(log2(1+v_max)) — the O(log log m) bits a Morris
// counter occupies.
func (c *Counter) SpaceBits() int64 {
	return int64(nt.BitsFor(uint64(c.max)))
}
