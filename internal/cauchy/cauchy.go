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
// Cauchy variables are derandomized exactly as in the paper: the entry
// A_{j,i} is tan(pi * (u - 1/2)) for u drawn k-wise independently from
// a single polynomial hash over the combined key (row, item) — one seed
// of O(k log n) bits generates the whole matrix, the paper's Lemma 12.
package cauchy

import (
	"fmt"
	"math"
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

// cauchyFromUnit maps u in (0,1] to a standard Cauchy variable,
// clamped to avoid the measure-zero pole at u = 1 (u - 1/2 = 1/2).
func cauchyFromUnit(u float64) float64 {
	x := math.Tan(math.Pi * (u - 0.5))
	const clamp = 1e12
	if x > clamp {
		return clamp
	}
	if x < -clamp {
		return -clamp
	}
	return x
}

// Sketch is the Figure 5 baseline: dense Cauchy counters over the whole
// stream.
type Sketch struct {
	r, rPrime int
	hA        *hash.KWise // generates A entries, k-wise
	hAPrime   *hash.KWise // generates A' entries, 4-wise
	y         []float64
	yPrime    []float64
	maxAbs    float64
	m         int64
	qAbs      []float64 // scratch for the query-side |y'| median
}

// NewSketch builds the baseline with r main rows (use Theta(1/eps^2)),
// rPrime median rows (Theta(1); more rows tighten the constant-factor
// median estimate), and independence k (Theta(log(1/eps)/loglog(1/eps));
// k >= 4 suffices for the regimes exercised here).
func NewSketch(rng *rand.Rand, r, rPrime, k int) *Sketch {
	if r < 1 || rPrime < 1 || k < 2 {
		panic(fmt.Sprintf("cauchy: invalid dims r=%d r'=%d k=%d", r, rPrime, k))
	}
	return &Sketch{
		r: r, rPrime: rPrime,
		hA:      hash.NewKWise(rng, k),
		hAPrime: hash.NewKWise(rng, 4),
		y:       make([]float64, r),
		yPrime:  make([]float64, rPrime),
	}
}

// entryA returns A_{j,i}.
func (s *Sketch) entryA(j int, i uint64) float64 {
	return cauchyFromUnit(s.hA.Unit(entryKey(j, i)))
}

// entryAPrime returns A'_{j,i}.
func (s *Sketch) entryAPrime(j int, i uint64) float64 {
	return cauchyFromUnit(s.hAPrime.Unit(entryKey(j, i)))
}

// Update adds delta to coordinate i of the underlying frequency vector.
func (s *Sketch) Update(i uint64, delta int64) {
	d := float64(delta)
	s.m += stream.Abs64(delta)
	for j := range s.y {
		s.y[j] += s.entryA(j, i) * d
		if a := math.Abs(s.y[j]); a > s.maxAbs {
			s.maxAbs = a
		}
	}
	for j := range s.yPrime {
		s.yPrime[j] += s.entryAPrime(j, i) * d
		if a := math.Abs(s.yPrime[j]); a > s.maxAbs {
			s.maxAbs = a
		}
	}
}

// UpdateColumns applies a pre-planned columnar batch accumulator-major:
// each dense counter folds the whole batch in one straight-line loop
// before the next counter is touched. Every accumulator sees its adds
// in batch order — the same float sequence as the scalar path — so the
// counters and the running |y| peak are bit-identical to Update.
func (s *Sketch) UpdateColumns(b *core.Batch) {
	idx, deltas := b.Idx, b.Delta
	for _, d := range deltas {
		s.m += stream.Abs64(d)
	}
	for j := range s.y {
		acc := s.y[j]
		for t, i := range idx {
			acc += s.entryA(j, i) * float64(deltas[t])
			if a := math.Abs(acc); a > s.maxAbs {
				s.maxAbs = a
			}
		}
		s.y[j] = acc
	}
	for j := range s.yPrime {
		acc := s.yPrime[j]
		for t, i := range idx {
			acc += s.entryAPrime(j, i) * float64(deltas[t])
			if a := math.Abs(acc); a > s.maxAbs {
				s.maxAbs = a
			}
		}
		s.yPrime[j] = acc
	}
}

// MedianEstimate returns Indyk's estimator median(|y'_j|): a constant-
// factor approximation of ||f||_1 with the r' rows, the "Fact 1" rough
// estimate the heavy-hitters algorithm needs. The median works over
// reusable scratch, so steady-state queries allocate nothing.
func (s *Sketch) MedianEstimate() float64 {
	return medianAbsScratch(s.yPrime, &s.qAbs)
}

// LnCosEstimate returns the Figure 5 estimator. It falls back to the
// median estimate when the cosine average is nonpositive (possible only
// in the extreme tail for small r).
func (s *Sketch) LnCosEstimate() float64 {
	return lnCos(s.y, medianAbsScratch(s.yPrime, &s.qAbs))
}

// lnCos computes ymed * (-ln((1/r) sum cos(y_i/ymed))) with guards.
func lnCos(y []float64, ymed float64) float64 {
	if ymed <= 0 {
		return 0
	}
	var acc float64
	for _, v := range y {
		acc += math.Cos(v / ymed)
	}
	acc /= float64(len(y))
	if acc <= 0 {
		// Out-of-theory regime; the median estimate is still a constant
		// factor answer, so return it rather than NaN.
		return ymed
	}
	return ymed * (-math.Log(acc))
}

// Merge folds another Sketch built from the same seed into this one:
// the counters are linear in the input stream, so coordinate-wise
// addition yields the sketch of the concatenated stream.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("cauchy: merge with nil Sketch")
	}
	if s.r != other.r || s.rPrime != other.rPrime {
		return fmt.Errorf("cauchy: merging Sketches with different dimensions (r=%d/%d r'=%d/%d)",
			s.r, other.r, s.rPrime, other.rPrime)
	}
	for j := range s.y {
		s.y[j] += other.y[j]
		if a := math.Abs(s.y[j]); a > s.maxAbs {
			s.maxAbs = a
		}
	}
	for j := range s.yPrime {
		s.yPrime[j] += other.yPrime[j]
		if a := math.Abs(s.yPrime[j]); a > s.maxAbs {
			s.maxAbs = a
		}
	}
	if other.maxAbs > s.maxAbs {
		s.maxAbs = other.maxAbs
	}
	s.m += other.m
	return nil
}

// CloneInto returns a deep copy sharing the (immutable) hash functions,
// written into dst (nil: a new one), an earlier copy nobody else holds.
func (s *Sketch) CloneInto(dst *Sketch) *Sketch {
	dst = core.OrNew(dst)
	c := *s
	c.y, c.yPrime, c.qAbs = append(dst.y[:0], s.y...), append(dst.yPrime[:0], s.yPrime...), dst.qAbs
	*dst = c
	return dst
}

// MaxCounterBits returns the fixed-point width one dense counter needs:
// log2(1+max|y|) magnitude bits plus the paper's delta = Theta(eps/m)
// precision bits (Lemma 12) plus a sign — the O(log n) width Figure 1
// row 5 charges the baseline.
func (s *Sketch) MaxCounterBits() int64 {
	const precisionBits = 20
	return int64(nt.BitsFor(uint64(s.maxAbs))) + precisionBits + 1
}

// SpaceBits charges every counter at MaxCounterBits plus the two shared
// matrix seeds.
func (s *Sketch) SpaceBits() int64 {
	seeds := s.hA.SpaceBits() + s.hAPrime.SpaceBits()
	return int64(s.r+s.rPrime)*s.MaxCounterBits() + seeds
}

// SampledSketch is the alpha-property L1 estimator of Theorem 8: Cauchy
// counters fed only with sampled updates, using the interval schedule
// I_j = [s^j, s^{j+2}] so the final estimate comes from a level that
// sampled at rate >= base/(2m) over a (1 - O(1/base))-suffix of the
// stream.
type SampledSketch struct {
	r, rPrime int
	hA        *hash.KWise
	hAPrime   *hash.KWise
	base      int64 // interval base s
	fpBits    uint
	t         int64
	win       *sample.Window[sampledLevel]
	rng       *sample.Rand
	maxCount  int64

	// Query scratch: Estimate/MedianEstimate rescale the oldest level's
	// counters into these reusable buffers instead of allocating per call.
	qY, qYPrime, qAbs []float64
}

type sampledLevel struct {
	start  int64
	y      []int64 // fixed-point sampled Cauchy sums
	yPrime []int64
}

// NewSampledSketch builds the Theorem 8 estimator. base is the interval
// base s: the level answering a query at time m has sampled between
// base/m and base^2/m of the suffix, so base sets the sample budget (the
// paper's s = poly(alpha/eps), scaled down by a constant here). fpBits
// is the fixed-point resolution of sampled Cauchy contributions.
func NewSampledSketch(rng *rand.Rand, r, rPrime, k int, base int64, fpBits uint) *SampledSketch {
	if base < 4 {
		panic("cauchy: interval base must be >= 4")
	}
	if r < 1 || rPrime < 1 || k < 2 {
		panic(fmt.Sprintf("cauchy: invalid dims r=%d r'=%d k=%d", r, rPrime, k))
	}
	return &SampledSketch{
		r: r, rPrime: rPrime, base: base, fpBits: fpBits,
		hA:      hash.NewKWise(rng, k),
		hAPrime: hash.NewKWise(rng, 4),
		win:     sample.NewWindow[sampledLevel](base),
		rng:     sample.Wrap(rng),
	}
}

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
func (s *SampledSketch) newLevel(int) *sampledLevel {
	return &sampledLevel{start: s.t, y: make([]int64, s.r), yPrime: make([]int64, s.rPrime)}
}

func copySampledLevel(lv, dst *sampledLevel) *sampledLevel {
	dst = core.OrNew(dst)
	*dst = sampledLevel{start: lv.start, y: append(dst.y[:0], lv.y...), yPrime: append(dst.yPrime[:0], lv.yPrime...)}
	return dst
}

// UpdateColumns consumes a pre-planned columnar batch. The sampled
// levels draw one rng decision per unit update, so application stays
// per-item in column order — the rng sequence (and therefore the
// state) is identical to the scalar path.
func (s *SampledSketch) UpdateColumns(b *core.Batch) {
	for j, i := range b.Idx {
		s.Update(i, b.Delta[j])
	}
}

// addTo adds units signed copies of item i's Cauchy row to the level
// in closed form: equal contributions move a counter monotonically, so
// its peak magnitude is at an endpoint.
func (s *SampledSketch) addTo(lv *sampledLevel, i uint64, units int64) {
	unit := float64(int64(1) << s.fpBits)
	for j := range lv.y {
		c := int64(math.Round(cauchyFromUnit(s.hA.Unit(entryKey(j, i))) * unit))
		lv.y[j] += units * c
		if a := stream.Abs64(lv.y[j]); a > s.maxCount {
			s.maxCount = a
		}
	}
	for j := range lv.yPrime {
		c := int64(math.Round(cauchyFromUnit(s.hAPrime.Unit(entryKey(j, i))) * unit))
		lv.yPrime[j] += units * c
		if a := stream.Abs64(lv.yPrime[j]); a > s.maxCount {
			s.maxCount = a
		}
	}
}

// Estimate returns the ln-cos L1 estimate from the oldest live level,
// rescaled by its sampling rate. The rescaled rows live in reusable
// scratch, so steady-state queries allocate nothing.
func (s *SampledSketch) Estimate() float64 {
	j, lv := s.win.Oldest()
	if lv == nil {
		return 0
	}
	scale := float64(sample.Pow(s.base, j)) / float64(int64(1)<<s.fpBits)
	rescaleInto(&s.qY, lv.y, scale)
	rescaleInto(&s.qYPrime, lv.yPrime, scale)
	return lnCos(s.qY, medianAbsScratch(s.qYPrime, &s.qAbs))
}

// MedianEstimate returns the constant-factor Indyk estimate from the
// oldest live level.
func (s *SampledSketch) MedianEstimate() float64 {
	j, lv := s.win.Oldest()
	if lv == nil {
		return 0
	}
	scale := float64(sample.Pow(s.base, j)) / float64(int64(1)<<s.fpBits)
	rescaleInto(&s.qYPrime, lv.yPrime, scale)
	return medianAbsScratch(s.qYPrime, &s.qAbs)
}

// rescaleInto sizes *dst (grown on demand) to len(xs) and fills it with
// xs[i]*scale.
func rescaleInto(dst *[]float64, xs []int64, scale float64) {
	d := core.Grow(dst, len(xs))
	for i, v := range xs {
		d[i] = float64(v) * scale
	}
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
	if s.r != other.r || s.rPrime != other.rPrime || s.base != other.base || s.fpBits != other.fpBits {
		return fmt.Errorf("cauchy: merging SampledSketches with different params")
	}
	s.win.Merge(other.win, func(lv, olv *sampledLevel) {
		for i := range lv.y {
			lv.y[i] += olv.y[i]
		}
		for i := range lv.yPrime {
			lv.yPrime[i] += olv.yPrime[i]
		}
		lv.start = min(lv.start, olv.start)
	}, copySampledLevel)
	s.t = sample.AddPos(s.t, other.t)
	s.maxCount = max(s.maxCount, other.maxCount)
	s.win.Sync(s.t, s.newLevel)
	return nil
}

// CloneInto is Sketch.CloneInto; the copy's rng stream is seeded by one
// draw of s's and built when the copy first draws.
func (s *SampledSketch) CloneInto(dst *SampledSketch) *SampledSketch {
	dst = core.OrNew(dst)
	c := *s
	c.win = s.win.CloneInto(dst.win, copySampledLevel)
	c.rng = sample.Seeded(s.rng.Get().Int63())
	c.qY, c.qYPrime, c.qAbs = dst.qY, dst.qYPrime, dst.qAbs
	*dst = c
	return dst
}

// MaxCounterBits returns the width of the widest sampled counter — the
// O(log(alpha log n / eps)) width Theorem 8 buys, to contrast with the
// dense Sketch.MaxCounterBits.
func (s *SampledSketch) MaxCounterBits() int64 {
	return int64(nt.BitsFor(uint64(s.maxCount))) + 1
}

// SpaceBits charges the live sampled counters at their observed widths
// plus the matrix seeds and the position counter.
func (s *SampledSketch) SpaceBits() int64 {
	perCounter := s.MaxCounterBits()
	counters := int64(s.win.Len()) * int64(s.r+s.rPrime) * perCounter
	seeds := s.hA.SpaceBits() + s.hAPrime.SpaceBits()
	position := int64(nt.BitsFor(uint64(s.t)))
	return counters + seeds + position
}

// medianAbsScratch returns the median of |xs| over a caller-owned
// scratch buffer (grown on demand): the sort works on a copy, so xs is
// never reordered, and repeated queries reuse one allocation.
func medianAbsScratch(xs []float64, scratch *[]float64) float64 {
	a := core.Grow(scratch, len(xs))
	for i, v := range xs {
		a[i] = math.Abs(v)
	}
	sort.Float64s(a)
	n := len(a)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return a[n/2]
	}
	return (a[n/2-1] + a[n/2]) / 2
}
