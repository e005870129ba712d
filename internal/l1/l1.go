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
//     cauchy (SampledSketch); this package re-exports a constructor so
//     callers find both variants in one place.
//
// An exact-clock variant (Morris counter replaced by a log(n)-bit
// position counter) is provided for ablation AB3.
package l1

import (
	"fmt"
	"math/rand"

	"repro/internal/cauchy"
	"repro/internal/core"
	"repro/internal/morris"
	"repro/internal/nt"
	"repro/internal/sample"
	"repro/internal/stream"
)

// Clock abstracts the stream-position estimate: Figure 4 uses a Morris
// counter (O(log log n) bits); the ablation uses an exact counter
// (O(log n) bits).
type Clock interface {
	Advance(n int64)
	Now() int64
	SpaceBits() int64
	// Clone copies the clock state; the copy draws any randomness it
	// needs from rng (snapshot support for merge-on-query).
	Clone(rng *sample.Rand) Clock
}

// morrisClock adapts morris.Counter to Clock.
type morrisClock struct{ c *morris.Counter }

func (m morrisClock) Advance(n int64)  { m.c.Add(n) }
func (m morrisClock) Now() int64       { return m.c.Estimate() }
func (m morrisClock) SpaceBits() int64 { return m.c.SpaceBits() }
func (m morrisClock) Clone(rng *sample.Rand) Clock {
	return morrisClock{m.c.Clone(rng)}
}

// exactClock is the ablation clock.
type exactClock struct {
	t   int64
	max int64
}

func (e *exactClock) Advance(n int64) { e.t = sample.AddPos(e.t, n); e.max = e.t }
func (e *exactClock) Now() int64      { return e.t }
func (e *exactClock) SpaceBits() int64 {
	return int64(nt.BitsFor(uint64(e.max)))
}
func (e *exactClock) Clone(*sample.Rand) Clock {
	return &exactClock{t: e.t, max: e.max}
}

// AlphaEstimator is the Figure 4 structure.
type AlphaEstimator struct {
	base  int64 // s = poly(alpha * log(n) / eps), laptop-scaled
	clock Clock
	win   *sample.Window[level]
	rng   *sample.Rand // shared with a Morris clock

	maxCount int64
	units    int64 // exact unit count, kept only for tests/metrics
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
	return newWithClock(rng, base, morrisClock{morris.New(rng)})
}

// NewExactClock builds the ablation variant with an exact position
// counter instead of the Morris counter.
func NewExactClock(rng *rand.Rand, base int64) *AlphaEstimator {
	return newWithClock(rng, base, &exactClock{})
}

func newWithClock(rng *rand.Rand, base int64, clock Clock) *AlphaEstimator {
	if base < 4 {
		panic(fmt.Sprintf("l1: interval base must be >= 4, got %d", base))
	}
	return &AlphaEstimator{
		base:  base,
		clock: clock,
		win:   sample.NewWindow[level](base),
		rng:   sample.Wrap(rng),
	}
}

// RecommendedBase scales the paper's s = O(alpha^2 log^3(n) / (delta
// eps^2)) to a usable sample budget: quadratic in alpha/eps with a log n
// factor.
func RecommendedBase(alpha, eps, delta float64, n uint64) int64 {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("l1: eps and delta must be in (0,1)")
	}
	if alpha < 1 {
		alpha = 1
	}
	v := alpha * alpha / (eps * eps * delta) * float64(nt.Log2Ceil(n)+1)
	if v < 16 {
		v = 16
	}
	if v > 1<<40 {
		v = 1 << 40
	}
	return int64(v)
}

// Update feeds an update; |delta| > 1 conceptually expands into unit
// updates, processed in chunks: the clock advances by whole sub-chunks
// (Morris's Add walks geometric gaps exactly) and each live level thins
// the sub-chunk with one binomial draw. Sub-chunks are bounded by a
// quarter of the current clock estimate so the level schedule is
// re-synced at least as often as the intervals can move — the same
// granularity tolerance the psi-slack of Theorem 6's analysis already
// absorbs. The cost is O(log |delta|) chunks of one Morris walk and one
// binomial draw per sampled live level, drawn in ascending level order.
func (a *AlphaEstimator) Update(i uint64, delta int64) {
	_ = i // the L1 estimator is index-oblivious: it sums signed samples
	mag := stream.Abs64(delta)
	for mag > 0 {
		chunk := a.clock.Now()/4 + 1
		if chunk > mag {
			chunk = mag
		}
		a.clock.Advance(chunk)
		a.units += chunk
		a.win.Sync(a.clock.Now(), newLevel)
		for j, lv := range a.win.Each {
			cnt := chunk
			if j > 0 {
				cnt = sample.Binomial(a.rng.Get(), chunk, 1/float64(sample.Pow(a.base, j)))
			}
			if cnt == 0 {
				continue
			}
			c := &lv.pos
			if delta < 0 {
				c = &lv.neg
			}
			*c += cnt
			a.maxCount = max(a.maxCount, *c)
		}
		mag -= chunk
	}
}

// UpdateColumns consumes a pre-planned columnar batch in column order,
// making Update's draws in Update's order (the state is identical to
// the scalar path's). Unit deltas under the Morris clock skip Update's
// per-item set-up: the live levels and their rates are re-read only
// when the clock's exponent moved or a wider delta went through Update.
func (a *AlphaEstimator) UpdateColumns(b *core.Batch) {
	mc, morris := a.clock.(morrisClock)
	var lvs [2]*level // the n live levels and their sampling rates,
	var rate [2]float64
	n, exp := 0, -1 // as read at Morris exponent exp (-1: not read)
	for pos, delta := range b.Delta {
		if !morris || (delta != 1 && delta != -1) {
			a.Update(b.Idx[pos], delta)
			exp = -1
			continue
		}
		mc.c.Add(1)
		a.units++
		if e := mc.c.Exponent(); e != exp {
			exp, n = e, 0
			a.win.Sync(mc.c.Estimate(), newLevel)
			for j, lv := range a.win.Each {
				lvs[n], rate[n] = lv, 1/float64(sample.Pow(a.base, j))
				n++
			}
		}
		for k, lv := range lvs[:n] {
			if rate[k] < 1 && sample.Binomial(a.rng.Get(), 1, rate[k]) == 0 {
				continue
			}
			c := &lv.pos
			if delta < 0 {
				c = &lv.neg
			}
			*c++
			a.maxCount = max(a.maxCount, *c)
		}
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
	a.clock.Advance(other.clock.Now())
	a.units += other.units
	a.win.Merge(other.win, func(dst, src *level) {
		dst.pos += src.pos
		dst.neg += src.neg
	}, copyLevel)
	a.maxCount = max(a.maxCount, other.maxCount)
	a.win.Sync(a.clock.Now(), newLevel)
	return nil
}

// CloneInto returns a deep copy written into dst (nil: a new one), an earlier
// copy nobody else holds, whose rng stream one draw of a's seeds lazily.
func (a *AlphaEstimator) CloneInto(dst *AlphaEstimator) *AlphaEstimator {
	dst = core.OrNew(dst)
	rng := sample.Seeded(a.rng.Get().Int63())
	*dst = AlphaEstimator{
		base:     a.base,
		clock:    a.clock.Clone(rng),
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
	return a.clock.SpaceBits() + counters + levelIndex + baseBits
}

// NewGeneral returns the general-turnstile alpha-property L1 estimator
// of Theorem 8 (sampled Cauchy sketches; see package cauchy). r controls
// accuracy (r = Theta(1/eps^2)).
func NewGeneral(rng *rand.Rand, r, rPrime, k int, base int64, fpBits uint) *cauchy.SampledSketch {
	return cauchy.NewSampledSketch(rng, r, rPrime, k, base, fpBits)
}
