// Package cauchy implements the 1-stable (Cauchy) linear sketches used
// for general-turnstile L1 estimation:
//
//   - Sketch is the unbounded-deletion baseline of the paper's Figure 5
//     (Kane-Nelson-Woodruff): maintain y = Af and y' = A'f for Cauchy
//     matrices A (r = Theta(1/eps^2) rows, k-wise independent entries)
//     and A' (r' = Theta(1) rows); output
//
//     L~ = y'med * ( -ln( (1/r) * sum_i cos(y_i / y'med) ) )
//
//     where y'med = median |y'_i| (Theorem 7). The median of |y'| alone is
//     Indyk's estimator, exposed as MedianEstimate and used wherever the
//     paper needs a constant-factor L1 (Fact 1).
//
//   - SampledSketch is the alpha-property variant of Theorem 8: the same
//     estimator computed from counters that only see a uniform sample of
//     poly(alpha/eps) updates, maintained with the exponential-interval
//     double-buffer schedule, so each counter needs O(log(alpha log n /
//     eps)) bits rather than O(log n).
//
// Both keep their counters as one type, level: int64 sums on a
// 2^-fpBits grid, fed by one closed-form add, merged by one level merge,
// rescaled to floats only by the query and shipped as one count column.
// The dense sketch is one level on the 2^-20 grid; the sampled one keeps
// a window of levels on a coarser grid.
//
// Cauchy variables are derandomized exactly as in the paper: the entry
// A_{j,i} is tan(pi * (u - 1/2)) for u drawn k-wise independently from
// a single polynomial hash over the combined key (row, item) — one seed
// of O(k log n) bits generates the whole matrix, the paper's Lemma 12.
package cauchy

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/sample"
	"repro/internal/stream"
)

// rowKeyBits bounds the universe: identities must fit in 44 bits so the
// (row, item) pair packs into one 61-bit field element.
const rowKeyBits = 44

// entryKey packs (row j, item i) into a single hash key.
func entryKey(j int, i uint64) uint64 {
	return uint64(j)<<rowKeyBits | (i & (1<<rowKeyBits - 1))
}

// cauchyClamp bounds |A_{j,i}|, the measure-zero pole clamped away.
const cauchyClamp = 1e12

// cauchyFromUnit maps u in (0,1] to a standard Cauchy variable,
// clamped to avoid the measure-zero pole at u = 1 (u - 1/2 = 1/2).
func cauchyFromUnit(u float64) float64 {
	x := math.Tan(math.Pi * (u - 0.5))
	if x > cauchyClamp {
		return cauchyClamp
	}
	if x < -cauchyClamp {
		return -cauchyClamp
	}
	return x
}

// denseFPBits is the dense sketch's grid: the paper's delta =
// Theta(eps/m) precision bits (Lemma 12) below a counter's magnitude.
const denseFPBits = 20

// maxFPBits is the finest grid whose entries fit an int64:
// cauchyClamp·2^23 < 2^63.
const maxFPBits = 23

// matrix is what both sketches share: the dimensions, the two matrix
// seeds, the fixed-point grid, the counter peak and the query scratch.
type matrix struct {
	r, rPrime int
	hA        *hash.KWise // generates A entries, k-wise
	hAPrime   *hash.KWise // generates A' entries, 4-wise
	fpBits    uint
	peak      int64     // the widest |counter| held (the peak rule, doc.go)
	qAbs      []float64 // scratch for the query-side |y'| median
}

func newMatrix(rng *rand.Rand, r, rPrime, k int, fpBits uint) matrix {
	if r < 1 || rPrime < 1 || k < 2 || fpBits > maxFPBits {
		panic(fmt.Sprintf("cauchy: invalid dims r=%d r'=%d k=%d fpBits=%d", r, rPrime, k, fpBits))
	}
	return matrix{r: r, rPrime: rPrime, fpBits: fpBits, hA: hash.NewKWise(rng, k), hAPrime: hash.NewKWise(rng, 4)}
}

func (m *matrix) sameShape(o *matrix) error {
	if m.r != o.r || m.rPrime != o.rPrime || m.fpBits != o.fpBits {
		return fmt.Errorf("cauchy: merging sketches with different dimensions (r=%d/%d r'=%d/%d fpBits=%d/%d)",
			m.r, o.r, m.rPrime, o.rPrime, m.fpBits, o.fpBits)
	}
	return nil
}

// level is one set of Cauchy counters over the stream since start: the
// sums y = Af (the r main rows) then y' = A'f (the r' median rows), on
// the 2^-fpBits grid.
type level struct {
	start int64
	c     []int64
}

// open returns a level of zero counters starting at start.
func (m *matrix) open(start int64) *level {
	return &level{start: start, c: make([]int64, m.r+m.rPrime)}
}

func copyLevel(lv, dst *level) *level {
	dst = core.OrNew(dst)
	*dst = level{start: lv.start, c: append(dst.c[:0], lv.c...)}
	return dst
}

// addTo adds units signed copies of item i's Cauchy column to the level
// in closed form: equal contributions move a counter monotonically, so
// its peak magnitude is at an endpoint.
func (m *matrix) addTo(lv *level, i uint64, units int64) {
	for j := range lv.c {
		lv.c[j] = m.widen(satAdd(lv.c[j], satMul(units, m.entry(j, i))))
	}
}

// entry is counter j's matrix entry for item i on the grid: A_{j,i} for
// a main row, A'_{j-r,i} for a median row.
func (m *matrix) entry(j int, i uint64) int64 {
	h := m.hA
	if j >= m.r {
		h, j = m.hAPrime, j-m.r
	}
	return int64(math.Round(cauchyFromUnit(h.Unit(entryKey(j, i))) * float64(int64(1)<<m.fpBits)))
}

// mergeLevel adds o's counters into lv's: both sampled the same rate.
func (m *matrix) mergeLevel(lv, o *level) {
	for j, v := range o.c {
		lv.c[j] = m.widen(satAdd(lv.c[j], v))
	}
	lv.start = min(lv.start, o.start)
}

// widen raises the peak to |v| and returns v.
func (m *matrix) widen(v int64) int64 {
	m.peak = max(m.peak, stream.Abs64(v))
	return v
}

// satMul is a·b saturated at ±MaxInt64.
func satMul(a, b int64) int64 {
	hi, lo := bits.Mul64(magnitude(a), magnitude(b))
	p := int64(min(lo, math.MaxInt64))
	if hi != 0 {
		p = math.MaxInt64
	}
	if (a < 0) != (b < 0) {
		return -p
	}
	return p
}

// satAdd is a+b saturated at ±MaxInt64: a counter that would wrap holds
// its sign's extreme instead, so no counter changes sign by overflow.
func satAdd(a, b int64) int64 {
	s := a + b
	if (a^s)&(b^s) < 0 { // a and b share the sign s lacks: the sum wrapped
		if a < 0 {
			return -math.MaxInt64
		}
		return math.MaxInt64
	}
	return max(s, -math.MaxInt64)
}

func magnitude(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// estimate rescales lv's counters to the stream — by rate·2^-fpBits,
// rate the level's sampling denominator — and returns Indyk's median
// |y'| or, with lnCos, the Figure 5 estimate over y, which falls back
// to the median when the cosine average is nonpositive (possible only
// in the extreme tail for small r). The median sorts reusable scratch,
// so steady-state queries allocate nothing.
func (m *matrix) estimate(lv *level, rate int64, lnCos bool) float64 {
	scale := float64(rate) / float64(int64(1)<<m.fpBits)
	a := core.Grow(&m.qAbs, m.rPrime)
	for j, v := range lv.c[m.r:] {
		a[j] = math.Abs(float64(v) * scale)
	}
	sort.Float64s(a)
	ymed := a[m.rPrime/2]
	if m.rPrime%2 == 0 {
		ymed = (a[m.rPrime/2-1] + ymed) / 2
	}
	if !lnCos || ymed <= 0 {
		return ymed
	}
	var acc float64
	for _, v := range lv.c[:m.r] {
		acc += math.Cos(float64(v) * scale / ymed)
	}
	if acc /= float64(m.r); acc <= 0 {
		// Out-of-theory regime; the median estimate is still a constant
		// factor answer, so return it rather than NaN.
		return ymed
	}
	return ymed * (-math.Log(acc))
}

// MaxCounterBits returns the width of the widest counter held, sign
// included: on the dense sketch's 2^-20 grid the O(log n) width Figure 1
// row 5 charges the baseline, on the sampled sketch's the O(log(alpha
// log n / eps)) width Theorem 8 buys. A saturated counter reads 64.
func (m *matrix) MaxCounterBits() int64 {
	return int64(nt.BitsFor(uint64(m.peak))) + 1
}

func (m *matrix) seedBits() int64 { return m.hA.SpaceBits() + m.hAPrime.SpaceBits() }

// Sketch is the Figure 5 baseline: dense Cauchy counters over the whole
// stream, one level on the 2^-20 grid.
type Sketch struct {
	matrix
	lv level
	m  int64
}

// NewSketch builds the baseline with r main rows (use Theta(1/eps^2)),
// rPrime median rows (Theta(1); more rows tighten the constant-factor
// median estimate), and independence k (Theta(log(1/eps)/loglog(1/eps));
// k >= 4 suffices for the regimes exercised here).
func NewSketch(rng *rand.Rand, r, rPrime, k int) *Sketch {
	s := &Sketch{matrix: newMatrix(rng, r, rPrime, k, denseFPBits)}
	s.lv = *s.open(0)
	return s
}

// Update adds delta to coordinate i of the underlying frequency vector.
func (s *Sketch) Update(i uint64, delta int64) {
	s.m += stream.Abs64(delta)
	s.addTo(&s.lv, i, delta)
}

// UpdateColumns applies a pre-planned columnar batch, per item in
// column order; integer adds commute, so any order gives these counters.
func (s *Sketch) UpdateColumns(b *core.Batch) {
	for j, i := range b.Idx {
		s.Update(i, b.Delta[j])
	}
}

// MedianEstimate returns Indyk's estimator median(|y'_j|): a constant-
// factor approximation of ||f||_1 with the r' rows, the "Fact 1" rough
// estimate the heavy-hitters algorithm needs.
func (s *Sketch) MedianEstimate() float64 { return s.estimate(&s.lv, 1, false) }

// LnCosEstimate returns the Figure 5 estimator.
func (s *Sketch) LnCosEstimate() float64 { return s.estimate(&s.lv, 1, true) }

// Merge folds another Sketch built from the same seed into this one:
// the counters are linear in the input stream, so coordinate-wise
// addition yields the sketch of the concatenated stream.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("cauchy: merge with nil Sketch")
	}
	if err := s.sameShape(&other.matrix); err != nil {
		return err
	}
	s.mergeLevel(&s.lv, &other.lv)
	s.peak = max(s.peak, other.peak)
	s.m += other.m
	return nil
}

// CloneInto returns a deep copy sharing the (immutable) hash functions,
// written into dst (nil: a new one), an earlier copy nobody else holds.
func (s *Sketch) CloneInto(dst *Sketch) *Sketch {
	dst = core.OrNew(dst)
	c := *s
	c.lv, c.qAbs = *copyLevel(&s.lv, &dst.lv), dst.qAbs
	*dst = c
	return dst
}

// SpaceBits charges every counter at MaxCounterBits plus the two shared
// matrix seeds.
func (s *Sketch) SpaceBits() int64 {
	return int64(s.r+s.rPrime)*s.MaxCounterBits() + s.seedBits()
}

// SampledSketch is the alpha-property L1 estimator of Theorem 8: Cauchy
// counters fed only with sampled updates, using the interval schedule
// I_j = [s^j, s^{j+2}] so the final estimate comes from a level that
// sampled at rate >= base/(2m) over a (1 - O(1/base))-suffix of the
// stream.
type SampledSketch struct {
	matrix
	base int64 // interval base s
	t    int64
	win  *sample.Window[level]
	rng  *sample.Rand
}

// NewSampledSketch builds the Theorem 8 estimator. base is the interval
// base s: the level answering a query at time m has sampled between
// base/m and base^2/m of the suffix, so base sets the sample budget (the
// paper's s = poly(alpha/eps), scaled down by a constant here). fpBits
// (at most 23) is the fixed-point resolution of sampled Cauchy
// contributions.
func NewSampledSketch(rng *rand.Rand, r, rPrime, k int, base int64, fpBits uint) *SampledSketch {
	if base < 4 {
		panic("cauchy: interval base must be >= 4")
	}
	return &SampledSketch{
		matrix: newMatrix(rng, r, rPrime, k, fpBits),
		base:   base,
		win:    sample.NewWindow[level](base),
		rng:    sample.Wrap(rng),
	}
}

// Reset puts s back, for a Fill, in the state NewSampledSketch left it
// in, short of what Fill writes itself: the window is emptied. The
// dimensions, the hash wiring and the query scratch stay.
func (s *SampledSketch) Reset() { s.win.Reset() }

// Update feeds an update: |delta| unit updates, each sampled
// independently at every live level's rate, applied in runs over which
// the live set stands still — one draw per sampled level per run (in
// ascending level order), so the cost is O(log |delta|) window moves
// and never |delta| iterations.
func (s *SampledSketch) Update(i uint64, delta int64) {
	mag := stream.Abs64(delta)
	sign := int64(1)
	if delta < 0 {
		sign = -1
	}
	for mag > 0 {
		run := s.win.Step(&s.t, mag, s.newLevel)
		for j, lv := range s.win.Each {
			if kept := sample.Thin(s.rng.Get(), run, sample.Pow(s.base, j)); kept != 0 {
				s.addTo(lv, i, sign*kept)
			}
		}
		mag -= run
	}
}

// newLevel opens a level at the current position.
func (s *SampledSketch) newLevel(int) *level { return s.open(s.t) }

// UpdateColumns consumes a pre-planned columnar batch. The sampled
// levels draw one rng decision per unit update, so application stays
// per-item in column order — the rng sequence (and therefore the
// state) is identical to the scalar path.
func (s *SampledSketch) UpdateColumns(b *core.Batch) {
	for j, i := range b.Idx {
		s.Update(i, b.Delta[j])
	}
}

// Estimate returns the ln-cos L1 estimate from the oldest live level,
// rescaled by its sampling rate.
func (s *SampledSketch) Estimate() float64 {
	j, lv := s.win.Oldest()
	if lv == nil {
		return 0
	}
	return s.estimate(lv, sample.Pow(s.base, j), true)
}

// Level returns the oldest live level j*, whose counters answer the
// query (0: they sample every unit).
func (s *SampledSketch) Level() int { j, _ := s.win.Oldest(); return j }

// MedianEstimate returns the constant-factor Indyk estimate from the
// oldest live level.
func (s *SampledSketch) MedianEstimate() float64 {
	j, lv := s.win.Oldest()
	if lv == nil {
		return 0
	}
	return s.estimate(lv, sample.Pow(s.base, j), false)
}

// Merge folds another SampledSketch built from the same seed into this
// one. Levels live in both sketches at the same index j sample at the
// same rate base^-j, so their counters add; levels live in only one
// survive as-is. The combined position re-runs the interval schedule,
// pruning levels that fall outside the merged stream's active window.
// While both sketches are still in the rate-1 regime (t < base, only
// level 0 live), the merge is exact.
func (s *SampledSketch) Merge(other *SampledSketch) error {
	if other == nil {
		return fmt.Errorf("cauchy: merge with nil SampledSketch")
	}
	if s.base != other.base {
		return fmt.Errorf("cauchy: merging SampledSketches with different bases %d/%d", s.base, other.base)
	}
	if err := s.sameShape(&other.matrix); err != nil {
		return err
	}
	s.win.Merge(other.win, s.mergeLevel, copyLevel)
	s.t = sample.AddPos(s.t, other.t)
	s.peak = max(s.peak, other.peak)
	s.win.Sync(s.t, s.newLevel)
	return nil
}

// CloneInto is Sketch.CloneInto; the copy's rng stream is seeded by one
// draw of s's and built when the copy first draws.
func (s *SampledSketch) CloneInto(dst *SampledSketch) *SampledSketch {
	dst = core.OrNew(dst)
	c := *s
	c.win = s.win.CloneInto(dst.win, copyLevel)
	c.rng = sample.Seeded(s.rng.Get().Int63())
	c.qAbs = dst.qAbs
	*dst = c
	return dst
}

// SpaceBits charges the live sampled counters at MaxCounterBits plus
// the matrix seeds and the position counter.
func (s *SampledSketch) SpaceBits() int64 {
	counters := int64(s.win.Len()) * int64(s.r+s.rPrime) * s.MaxCounterBits()
	position := int64(nt.BitsFor(uint64(s.t)))
	return counters + s.seedBits() + position
}
