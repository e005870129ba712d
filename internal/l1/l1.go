// Package l1 implements the paper's L1 estimation algorithms for
// alpha-property streams (Section 5):
//
//   - AlphaEstimator is Figure 4 / Theorem 6: a strict-turnstile
//     (1 +- eps) L1 estimator in O(log(alpha/eps) + log(1/delta) +
//     log log n) bits. It samples unit updates at exponentially decaying
//     rates driven by a Morris-counter clock: intervals I_j =
//     [s^j, s^{j+2}] each hold a (c+, c-) pair sampling at rate s^-j, and
//     the oldest surviving pair answers the query. On a strict turnstile
//     stream sum_i f_i = ||f||_1, so the scaled difference of two small
//     counters suffices — this is where the log(n) of a dense counter
//     collapses to log(alpha/eps).
//
//   - The general turnstile estimator of Theorem 8 lives in package
//     cauchy (SampledSketch).
//
// Ingest walks the clock, not the units: between two ticks the live
// levels stand still, so a stretch of P positive and N negative units
// is counted at level 0 and thinned by one Binomial(P, s^-j) and one
// Binomial(N, s^-j) at each sampled level j — the law of one coin per
// unit per level, in O(ticks + live levels) draws. An exact-clock
// variant (a log(n)-bit position counter) is provided for ablation AB3.
package l1

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/morris"
	"repro/internal/nt"
	"repro/internal/sample"
	"repro/internal/stream"
)

// clock is the stream position: Figure 4's Morris counter (O(log log
// n) bits) or, with m nil, ablation AB3's exact counter t (O(log n)).
type clock struct {
	m *morris.Counter
	t int64
}

func (c *clock) now() int64 {
	if c.m != nil {
		return c.m.Estimate()
	}
	return c.t
}

// step moves through the head of n >= 1 units: the first run share the
// live set w is synced to on return (where they left the clock), and
// tick reports that the Morris clock moved on the unit after them.
func (c *clock) step(w *sample.Window[level], n int64) (run int64, tick bool) {
	if c.m == nil {
		return w.Step(&c.t, n, newLevel), false
	}
	w.Sync(c.m.Estimate(), newLevel)
	if run, tick = c.m.Walk(n); tick {
		run--
	}
	return run, tick
}

// AlphaEstimator is the Figure 4 structure.
type AlphaEstimator struct {
	base     int64 // s = poly(alpha * log(n) / eps), laptop-scaled
	clock    clock
	win      *sample.Window[level]
	rng      *sample.Rand // shared with a Morris clock
	maxCount int64        // the counters' peak (the peak rule, doc.go)
	units    int64        // exact unit count, kept only for tests/metrics
}

// level is one interval's (c+, c-) counter pair.
type level struct{ pos, neg int64 }

func newLevel(int) *level { return new(level) }

func copyLevel(lv, dst *level) *level {
	dst = core.OrNew(dst)
	*dst = *lv
	return dst
}

// New builds the estimator with interval base s (the paper's
// s = O(alpha^2 delta^-1 log^3(n) / eps^2); pass RecommendedBase for a
// laptop-scaled default) and a Morris clock.
func New(rng *rand.Rand, base int64) *AlphaEstimator {
	return newWithClock(rng, base, clock{m: morris.New(rng)})
}

// NewExactClock builds the ablation variant with an exact position
// counter instead of the Morris counter.
func NewExactClock(rng *rand.Rand, base int64) *AlphaEstimator {
	return newWithClock(rng, base, clock{})
}

func newWithClock(rng *rand.Rand, base int64, c clock) *AlphaEstimator {
	if base < 4 {
		panic(fmt.Sprintf("l1: interval base must be >= 4, got %d", base))
	}
	return &AlphaEstimator{base: base, clock: c, win: sample.NewWindow[level](base), rng: sample.Wrap(rng)}
}

// Reset puts a back, for a Fill, in the state New left it in, short of
// what Fill writes itself: the window is emptied. The base and the
// clock's kind stay.
func (a *AlphaEstimator) Reset() { a.win.Reset() }

// RecommendedBase scales the paper's s = O(alpha^2 log^3(n) / (delta
// eps^2)) to a usable sample budget: quadratic in alpha/eps with a log n
// factor.
func RecommendedBase(alpha, eps, delta float64, n uint64) int64 {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("l1: eps and delta must be in (0,1)")
	}
	alpha = max(alpha, 1)
	v := alpha * alpha / (eps * eps * delta) * float64(nt.Log2Ceil(n)+1)
	return int64(min(max(v, 16), 1<<40))
}

// Update feeds |delta| unit updates of delta's sign, walked as a batch
// of one: a unit delta makes one clock draw, then one coin per sampled
// level in ascending order; a wide one costs O(log |delta|) ticks.
func (a *AlphaEstimator) Update(_ uint64, delta int64) { a.feed([]int64{delta}) }

// UpdateColumns consumes a pre-planned columnar batch as one walk over
// its units in column order. It equals per-item feeding in law, not in
// bytes: batch boundaries are part of the call sequence.
func (a *AlphaEstimator) UpdateColumns(b *core.Batch) { a.feed(b.Delta) }

// feed counts the units of ds by sign in one branch-free pass and walks
// them; a batch holding a delta of 2^32 or more, whose sums could
// overflow, walks delta by delta (math.MinInt64 is skipped, as ever).
func (a *AlphaEstimator) feed(ds []int64) {
	var p, n, wide int64
	for _, d := range ds {
		s := d >> 63
		m := (d ^ s) - s
		p += m &^ s
		n += m & s
		wide |= m
	}
	if wide>>32 == 0 {
		a.walk(ds, p, n)
		return
	}
	for k, d := range ds {
		if d != math.MinInt64 {
			a.walk(ds[k:k+1], max(d, 0), max(-d, 0))
		}
	}
}

// walk ingests ds, holding p positive and n negative units, stretch by
// stretch: the quiet run before a clock tick at the live set it found,
// the ticking unit at the live set after the tick — the per-unit order.
func (a *AlphaEstimator) walk(ds []int64, p, n int64) {
	a.units = sample.AddPos(a.units, p+n)
	k, off := 0, int64(0) // delta k has off of its units walked
	take := func(q int64) (p, n int64) {
		for q > 0 {
			m := stream.Abs64(ds[k]) - off
			u := min(m, q)
			s := ds[k] >> 63
			p, n = p+u&^s, n+u&s
			if q, off = q-u, off+u; u == m {
				k, off = k+1, 0
			}
		}
		return p, n
	}
	for p+n > 0 {
		run, tick := a.clock.step(a.win, p+n)
		qp, qn := p, n
		if run < p+n {
			qp, qn = take(run)
		}
		a.sample(qp, qn)
		p, n = p-qp, n-qn
		if tick {
			qp, qn = take(1)
			a.win.Sync(a.clock.now(), newLevel)
			a.sample(qp, qn)
			p, n = p-qp, n-qn
		}
	}
}

// sample adds p positive and n negative units to every live level j,
// keeping Binomial(p, s^-j) and Binomial(n, s^-j) drawn in ascending j.
func (a *AlphaEstimator) sample(p, n int64) {
	for j, lv := range a.win.Each {
		kp, kn := p, n
		if j > 0 && p+n > 0 {
			rng, rate := a.rng.Get(), 1/float64(sample.Pow(a.base, j))
			kp, kn = sample.Binomial(rng, p, rate), sample.Binomial(rng, n, rate)
		}
		lv.pos += kp
		lv.neg += kn
		a.maxCount = max(a.maxCount, lv.pos, lv.neg)
	}
}

// Merge folds another estimator with the same interval base into this
// one: the clock advances by the other's position estimate, level pairs
// live in both at the same index j add their (c+, c-) counters (both
// sample at rate s^-j), level pairs live in only one survive, and the
// schedule re-syncs at the combined position. In the early regime where
// only level 0 is live (combined position below the base), counters are
// exact signed unit counts and the merge is exact.
func (a *AlphaEstimator) Merge(other *AlphaEstimator) error {
	if other == nil {
		return fmt.Errorf("l1: merge with nil AlphaEstimator")
	}
	if a.base != other.base {
		return fmt.Errorf("l1: merging estimators with different interval bases (%d vs %d)", a.base, other.base)
	}
	if n := other.clock.now(); a.clock.m != nil {
		a.clock.m.Add(n)
	} else {
		a.clock.t = sample.AddPos(a.clock.t, n)
	}
	a.units = sample.AddPos(a.units, other.units)
	a.win.Merge(other.win, func(dst, src *level) { *dst = level{dst.pos + src.pos, dst.neg + src.neg} }, copyLevel)
	a.win.Sync(a.clock.now(), newLevel)
	a.maxCount = max(a.maxCount, other.maxCount)
	a.sample(0, 0) // folds the summed counters into maxCount
	return nil
}

// CloneInto returns a deep copy written into dst (nil: a new one), an earlier
// copy nobody else holds, whose rng stream one draw of a's seeds lazily.
func (a *AlphaEstimator) CloneInto(dst *AlphaEstimator) *AlphaEstimator {
	dst = core.OrNew(dst)
	rng := sample.Seeded(a.rng.Get().Int63())
	c := a.clock
	if c.m != nil {
		v, max := c.m.State()
		c.m = morris.Restore(rng, v, max)
	}
	*dst = AlphaEstimator{
		base:     a.base,
		clock:    c,
		win:      a.win.CloneInto(dst.win, copyLevel),
		rng:      rng,
		maxCount: a.maxCount,
		units:    a.units,
	}
	return dst
}

// Estimate returns the scaled difference s^{j*} (c+ - c-) of the oldest
// surviving counter pair (Figure 4 step 5). On a strict turnstile
// alpha-property stream this is a (1 +- eps) estimate of ||f||_1.
func (a *AlphaEstimator) Estimate() float64 {
	j, lv := a.win.Oldest()
	if lv == nil {
		return 0
	}
	return float64(sample.Pow(a.base, j)) * float64(lv.pos-lv.neg)
}

// LiveLevels returns the number of live counter pairs (always <= 2).
func (a *AlphaEstimator) LiveLevels() int { return a.win.Len() }

// Units returns the exact unit-update count (test/metric support only;
// the algorithm itself never reads it).
func (a *AlphaEstimator) Units() int64 { return a.units }

// SpaceBits charges the clock, the (at most two) counter pairs at their
// observed widths, and the level index — the O(log(alpha/eps) +
// log log n) layout of Theorem 6.
func (a *AlphaEstimator) SpaceBits() int64 {
	perCounter := int64(nt.BitsFor(uint64(a.maxCount)))
	live := a.win.Len()
	counters := int64(live) * 2 * perCounter
	levelIndex := int64(2 * nt.BitsFor(uint64(live+2)))
	baseBits := int64(nt.BitsFor(uint64(a.base)))
	clockBits := int64(nt.BitsFor(uint64(a.clock.t)))
	if a.clock.m != nil {
		clockBits = a.clock.m.SpaceBits()
	}
	return clockBits + counters + levelIndex + baseBits
}

// Level returns the oldest live level j*, whose counters answer the
// query (0: they count every unit).
func (a *AlphaEstimator) Level() int { j, _ := a.win.Oldest(); return j }
