// Package sampler implements L1 sampling (the paper's Section 4):
// return index i with probability (1 +- eps) |f_i| / ||f||_1, plus an
// O(eps)-relative-error estimate of f_i, or FAIL (without returning
// anything) with bounded probability.
//
// Alpha is the Figure 3 algorithm (alphaL1Sampler) for strict-turnstile
// strong alpha-property streams:
//
//  1. draw k-wise independent scaling factors t_i in (0,1] and run CSSS
//     (Figure 2) on the scaled stream z_i = f_i / t_i — any coordinate
//     scaling of a strong alpha-property stream keeps the alpha-property,
//     which is exactly why the strong property is assumed;
//  2. keep exact counters r = ||f||_1 and q = ||z||_1 (strict turnstile);
//  3. at query time, estimate the CSSS tail error v (Lemma 5), find the
//     maximal |y*_i|, and FAIL unless both the tail check
//     v <= sqrt(k) r + 45 sqrt(k) eps' q and the magnitude check
//     |y*_i| >= max(r/eps, (c/2)(eps^2/log^2 n) q) pass (Figure 3,
//     Recovery step 4, with c = 1/4 from Proposition 1);
//  4. output i with estimate t_i * y*_i.
//
// A single instance succeeds with probability Theta(eps); Sampler runs
// O(eps^-1 log(1/delta)) instances and returns the first success
// (Theorem 5).
//
// Baseline is the same precision-sampling loop over a dense Count-Sketch
// with O(log n)-bit counters — the unbounded-deletion JST layout that
// Figure 1 row 7 compares against.
package sampler

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/csss"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/sketch"
	"repro/internal/topk"
)

// Params configures one sampling instance.
type Params struct {
	N   uint64
	Eps float64
	// Rows/K/S configure the underlying CSSS (defaults: 5 rows,
	// K = max(8, 4*ceil(log2(1/eps))), S = RecommendedS(alpha, eps, n)).
	Rows int
	K    int
	S    int64
	// Alpha scales the default S.
	Alpha float64
	// TWise is the independence of the scaling factors t_i
	// (Theta(log 1/eps); default 8).
	TWise int
	// FPBits is the fixed-point resolution for weighted updates
	// (default 12).
	FPBits uint
	// WeightCap clamps 1/t_i to keep counters in range (default 2^24).
	WeightCap float64
}

func (p *Params) fill() {
	if p.Eps <= 0 || p.Eps >= 1 {
		panic(fmt.Sprintf("sampler: eps must be in (0,1), got %v", p.Eps))
	}
	if p.Alpha < 1 {
		p.Alpha = 1
	}
	if p.Rows <= 0 {
		p.Rows = 5
	}
	if p.K <= 0 {
		k := 4 * int(math.Ceil(math.Log2(1/p.Eps)))
		if k < 8 {
			k = 8
		}
		p.K = k
	}
	if p.S <= 0 {
		// The sampler's CSSS must resolve individual scaled items to
		// relative accuracy eps/T (T = 4/eps^2 + log n in Figure 2), not
		// just eps: without the extra T factor the tail estimate v blows
		// up exactly when a heavy z_i exists and every instance FAILs.
		// One factor of T on top of the generic budget suffices at
		// laptop scale; the paper's own S carries T^2.
		// The product saturates at 2^60, beyond any stream, so no eps
		// overflows it.
		t := int64(min(math.Ceil(4/(p.Eps*p.Eps)), 1<<60))
		p.S = min(csss.RecommendedS(p.Alpha, p.Eps, p.N), 1<<60/t) * t
	}
	if p.TWise <= 0 {
		p.TWise = 8
	}
	if p.FPBits == 0 {
		p.FPBits = 12
	}
	if p.WeightCap <= 0 {
		p.WeightCap = 1 << 24
	}
}

// Result is a successful sample.
type Result struct {
	Index    uint64
	Estimate float64 // O(eps)-relative-error estimate of f_Index
}

// instance is one Figure 3 sampler.
type instance struct {
	p       Params
	tHash   *hash.KWise
	te      *csss.TailEstimator
	trk     *topk.Tracker
	r       int64   // exact ||f||_1 (strict turnstile running sum)
	q       float64 // exact ||z||_1
	maxR    int64
	epsPrim float64 // eps' = eps^3 / log^2(n), the CSSS sensitivity
	logN    float64
}

// csssParams are the tail estimator's CSSS parameters at filled p.
func (p *Params) csssParams() csss.Params {
	return csss.Params{Rows: p.Rows, K: p.K, S: p.S, FixedPointBits: p.FPBits}
}

// trackerCap is the candidate capacity of one instance: 8 per CSSS
// column.
func trackerCap(k int) int { return 8 * k }

func newInstance(rng *rand.Rand, p Params) *instance {
	p.fill()
	logN := math.Max(4, float64(nt.Log2Ceil(p.N)))
	return &instance{
		p:       p,
		tHash:   hash.NewKWise(rng, p.TWise),
		te:      csss.NewTailEstimator(rng, p.csssParams()),
		trk:     topk.New(trackerCap(p.K)),
		epsPrim: p.Eps * p.Eps * p.Eps / (logN * logN),
		logN:    logN,
	}
}

// weight returns 1/t_i, clamped.
func (in *instance) weight(i uint64) float64 {
	w := in.tHash.UnitInv(i)
	if w > in.p.WeightCap {
		w = in.p.WeightCap
	}
	return w
}

func (in *instance) update(i uint64, delta int64) {
	in.ingest(i, delta)
	in.trk.Offer(i, in.te.CS1.Query(i))
}

// ingest feeds the sketches and norm counters without refreshing the
// candidate tracker (the batch path defers that to once per distinct
// index).
func (in *instance) ingest(i uint64, delta int64) {
	w := in.weight(i)
	in.te.UpdateWeighted(i, delta, w)
	in.r += delta
	if in.r > in.maxR {
		in.maxR = in.r
	}
	in.q += float64(delta) * w
}

// sample runs Figure 3's Recovery. ok is false on FAIL.
func (in *instance) sample() (Result, bool) {
	cands := in.trk.Candidates()
	rEst, qEst := float64(in.r), in.q
	if len(cands) == 0 || rEst <= 0 {
		return Result{}, false
	}
	v, _ := in.te.Estimate(cands, qEst, in.epsPrim)
	// Find maximal |y*_i|.
	var best uint64
	bestAbs := -1.0
	var bestVal float64
	for _, c := range cands {
		y := in.te.CS1.Query(c)
		if a := math.Abs(y); a > bestAbs {
			best, bestAbs, bestVal = c, a, y
		}
	}
	return accept(in.p, in.epsPrim, in.logN, rEst, qEst, v, best, bestVal, in.weight)
}

// accept is Figure 3's Recovery step 4, shared by Sampler and
// Baseline: FAIL unless both the tail check
// v <= sqrt(k) r + 45 sqrt(k) eps' q and the magnitude check
// |y*| >= max(r/eps, (c/2)(eps^2/log^2 n) q), c = 1/4, pass; otherwise
// output best with estimate t * y*, where t = 1/weight(best).
func accept(p Params, epsPrim, logN, r, q, v float64, best uint64, bestVal float64, weight func(uint64) float64) (Result, bool) {
	sqrtK := math.Sqrt(float64(p.K))
	if v > sqrtK*r+45*sqrtK*epsPrim*q {
		return Result{}, false
	}
	thr := r / p.Eps
	if alt := 0.125 * p.Eps * p.Eps / (logN * logN) * q; alt > thr {
		thr = alt
	}
	if math.Abs(bestVal) < thr {
		return Result{}, false
	}
	t := 1 / weight(best)
	return Result{Index: best, Estimate: t * bestVal}, true
}

func (in *instance) spaceBits() int64 {
	return in.te.SpaceBits() + in.trk.SpaceBits(in.p.N) +
		int64(nt.BitsFor(uint64(in.maxR))) + 64 + in.tHash.SpaceBits()
}

// Sampler runs parallel instances and returns the first success
// (Theorem 5's amplification).
type Sampler struct {
	instances []*instance

	refresh topk.Refresher[float64] // estimate scratch, shared by the copies
}

// New builds a sampler with `copies` parallel instances; pass
// copies ~ ceil(C/eps * log(1/delta)) to reach failure probability
// delta (C a small constant).
func New(rng *rand.Rand, p Params, copies int) *Sampler {
	if copies < 1 {
		copies = 1
	}
	s := &Sampler{instances: make([]*instance, copies)}
	for i := range s.instances {
		s.instances[i] = newInstance(rng, p)
	}
	return s
}

// Update feeds all instances.
func (s *Sampler) Update(i uint64, delta int64) {
	for _, in := range s.instances {
		in.update(i, delta)
	}
}

// UpdateColumns feeds a pre-planned columnar batch to all instances.
// Each instance ingests every update (per-item: the precision-sampling
// weights and binomial thinning draw per-instance rng) but refreshes
// its candidate tracker only once per distinct index — the tracker
// offer costs a full CSSS median query, the dominant term of the
// scalar path, and the distinct-index column is the batch's own plan,
// computed once and shared across the ~2/eps parallel copies.
func (s *Sampler) UpdateColumns(b *core.Batch) {
	for _, in := range s.instances {
		for j, i := range b.Idx {
			in.ingest(i, b.Delta[j])
		}
		// b's column scratch is free again once the instance finished
		// ingesting: one hash pass re-estimates every distinct index
		// against this instance's CS1.
		s.refresh.Offer(in.trk, b, in.te.CS1)
	}
}

// merge folds another instance built from the same seed into this one;
// r and b are the sampler's estimate and hash-column scratch for the
// candidate re-rank.
func (in *instance) merge(other *instance, r *topk.Refresher[float64], b *core.Batch) error {
	if in.p != other.p {
		return fmt.Errorf("sampler: merging instances with different params")
	}
	if err := in.te.Merge(other.te); err != nil {
		return err
	}
	in.r += other.r
	if in.r > in.maxR {
		in.maxR = in.r
	}
	if other.maxR > in.maxR {
		in.maxR = other.maxR
	}
	in.q += other.q
	_, err := r.MergeAll(in.trk, []*topk.Tracker{in.trk, other.trk}, b, in.te.CS1)
	return err
}

// cloneInto returns a deep copy of the instance written into dst (nil: a
// new one).
func (in *instance) cloneInto(dst *instance) *instance {
	dst = core.OrNew(dst)
	c := *in
	c.te, c.trk = in.te.CloneInto(dst.te), in.trk.CloneInto(dst.trk)
	*dst = c
	return dst
}

// Merge folds another Sampler built from the same seed into this one,
// instance by instance. other is only read.
func (s *Sampler) Merge(other *Sampler) error {
	if other == nil {
		return fmt.Errorf("sampler: merge with nil Sampler")
	}
	if len(s.instances) != len(other.instances) {
		return fmt.Errorf("sampler: merging Samplers with different copy counts (%d vs %d)",
			len(s.instances), len(other.instances))
	}
	b := core.GetBatch()
	defer core.PutBatch(b)
	for i := range s.instances {
		if err := s.instances[i].merge(other.instances[i], &s.refresh, b); err != nil {
			return err
		}
	}
	return nil
}

// CloneInto returns a deep copy (snapshot) of all instances written into
// dst (nil: a new one), an earlier copy nobody else holds.
func (s *Sampler) CloneInto(dst *Sampler) *Sampler {
	if dst == nil || len(dst.instances) != len(s.instances) {
		dst = &Sampler{instances: make([]*instance, len(s.instances))}
	}
	for i, in := range s.instances {
		dst.instances[i] = in.cloneInto(dst.instances[i])
	}
	return dst
}

// Sample returns the first non-FAIL instance's output; ok is false when
// every instance failed.
func (s *Sampler) Sample() (Result, bool) {
	for _, in := range s.instances {
		if r, ok := in.sample(); ok {
			return r, true
		}
	}
	return Result{}, false
}

// SpaceBits sums all instances.
func (s *Sampler) SpaceBits() int64 {
	var total int64
	for _, in := range s.instances {
		total += in.spaceBits()
	}
	return total
}

// Baseline is the unbounded-deletion precision sampler: identical logic
// over dense Count-Sketches with capacity-width counters.
type Baseline struct {
	instances []*baseInstance
}

type baseInstance struct {
	p       Params
	tHash   *hash.KWise
	cs1     *sketch.CountSketch
	cs2     *sketch.CountSketch
	trk     *topk.Tracker
	r       int64
	q       float64
	maxR    int64
	epsPrim float64
	logN    float64
	fpUnit  float64
}

// NewBaseline builds the dense-counter comparison sampler.
func NewBaseline(rng *rand.Rand, p Params, copies int) *Baseline {
	p.fill()
	if copies < 1 {
		copies = 1
	}
	b := &Baseline{instances: make([]*baseInstance, copies)}
	logN := math.Max(4, float64(nt.Log2Ceil(p.N)))
	for i := range b.instances {
		b.instances[i] = &baseInstance{
			p:       p,
			tHash:   hash.NewKWise(rng, p.TWise),
			cs1:     sketch.NewCountSketch(rng, p.Rows, uint64(6*p.K)),
			cs2:     sketch.NewCountSketch(rng, p.Rows, uint64(6*p.K)),
			trk:     topk.New(trackerCap(p.K)),
			epsPrim: p.Eps * p.Eps * p.Eps / (logN * logN),
			logN:    logN,
			fpUnit:  float64(int64(1) << p.FPBits),
		}
	}
	return b
}

func (bi *baseInstance) weight(i uint64) float64 {
	w := 1 / bi.tHash.Unit(i)
	if w > bi.p.WeightCap {
		w = bi.p.WeightCap
	}
	return w
}

func (bi *baseInstance) update(i uint64, delta int64) {
	w := bi.weight(i)
	d := int64(math.Round(float64(delta) * w * bi.fpUnit))
	bi.cs1.Update(i, d)
	bi.cs2.Update(i, d)
	bi.r += delta
	if bi.r > bi.maxR {
		bi.maxR = bi.r
	}
	bi.q += float64(delta) * w
	bi.trk.Offer(i, float64(bi.cs1.Query(i))/bi.fpUnit)
}

func (bi *baseInstance) sample() (Result, bool) {
	cands := bi.trk.Candidates()
	if len(cands) == 0 || bi.r <= 0 {
		return Result{}, false
	}
	// Lemma 5 on the dense pair: top-k of cs1, residual rows of cs2.
	type kv struct {
		i uint64
		v float64
	}
	ests := make([]kv, 0, len(cands))
	for _, c := range cands {
		ests = append(ests, kv{c, float64(bi.cs1.Query(c)) / bi.fpUnit})
	}
	for i := 1; i < len(ests); i++ {
		for j := i; j > 0 && math.Abs(ests[j].v) > math.Abs(ests[j-1].v); j-- {
			ests[j], ests[j-1] = ests[j-1], ests[j]
		}
	}
	top := ests
	if len(top) > bi.p.K {
		top = top[:bi.p.K]
	}
	yhat := make(map[uint64]float64, len(top))
	for _, e := range top {
		yhat[e.i] = e.v
	}
	rows := make([]float64, bi.cs2.Rows())
	for r := range rows {
		rows[r] = bi.cs2.RowResidualL2(r, yhat, bi.fpUnit)
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	v := 2*rows[len(rows)/2] + 5*bi.epsPrim*bi.q

	best, bestAbs, bestVal := uint64(0), -1.0, 0.0
	for _, e := range ests {
		if a := math.Abs(e.v); a > bestAbs {
			best, bestAbs, bestVal = e.i, a, e.v
		}
	}
	return accept(bi.p, bi.epsPrim, bi.logN, float64(bi.r), bi.q, v, best, bestVal, bi.weight)
}

// Update feeds all instances.
func (b *Baseline) Update(i uint64, delta int64) {
	for _, in := range b.instances {
		in.update(i, delta)
	}
}

// Sample returns the first non-FAIL instance's output.
func (b *Baseline) Sample() (Result, bool) {
	for _, in := range b.instances {
		if r, ok := in.sample(); ok {
			return r, true
		}
	}
	return Result{}, false
}

// SpaceBits sums all instances.
func (b *Baseline) SpaceBits() int64 {
	var total int64
	for _, in := range b.instances {
		total += in.cs1.SpaceBits() + in.cs2.SpaceBits() +
			in.trk.SpaceBits(in.p.N) + int64(nt.BitsFor(uint64(in.maxR))) + 64 +
			in.tHash.SpaceBits()
	}
	return total
}
