package l0

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/stream"
)

// Params configures the (1 +- eps) L0 estimator.
type Params struct {
	// N is the universe size.
	N uint64
	// Eps sets K = ceil(1/eps^2) bins per subsampling level.
	Eps float64
	// Windowed selects Figure 7 (true: keep only rows near the rough
	// estimate, the alpha-property algorithm) or Figure 6 (false: keep
	// all log n rows, the unbounded-deletion KNW baseline).
	Windowed bool
	// Window is the one-sided row window for Figure 7, nominally
	// 2*log2(4*alpha/eps).
	Window int
}

// Estimator is the balls-into-bins L0 sketch of Figures 6 and 7. Items
// are subsampled into rows by lsb(h1(i)); within a row, the identity is
// perfect-hashed by h2 into [K^3], assigned a bin by h3 and a random
// field multiplier u[h4(.)], and the bin accumulates delta * u mod p.
// A bin is "hit" iff its value is nonzero, and inverting the occupancy
// expectation K(1-(1-1/K)^A) yields the level's ball count.
type Estimator struct {
	params   Params
	k        int // K bins per row
	maxRow   int
	p        uint64
	h1       *hash.KWise // level hash: row = lsb(h1(i))
	h2       *hash.KWise // [n] -> [K^3] perfect hash
	h3       *hash.KWise // [K^3] -> [K], k-wise
	h4       *hash.KWise // [K^3] -> [K], pairwise, selects u entry
	u        []uint64    // random multipliers in F_p
	rows     map[int][]uint64
	rough    *RoughF0 // drives the Figure 7 row window
	floorRow int64    // 8 log n / log log n clamp of Figure 7
	final    *RoughL0 // constant-factor R for query-time row selection

	// Small-L0 side structures (Lemma 17 / Lemma 19).
	small         *ExactSmall
	singleRow     []uint64
	h2s, h3s, h4s *hash.KWise
	us            []uint64

	maxLiveRows int
	seeds       int64
}

// NewEstimator builds the estimator. For Figure 6 pass Windowed: false;
// for Figure 7 pass Windowed: true and a Window ~ 2*log2(4*alpha/eps).
func NewEstimator(rng *rand.Rand, params Params) *Estimator {
	if params.Eps <= 0 || params.Eps >= 1 {
		panic(fmt.Sprintf("l0: eps must be in (0,1), got %v", params.Eps))
	}
	if params.N < 2 {
		panic("l0: universe too small")
	}
	k := int(math.Ceil(1 / (params.Eps * params.Eps)))
	if k < 16 {
		k = 16
	}
	// Random prime p in [D, D^2], D = 100*K*log(mM) with log(mM) ~ 64;
	// [D, D^2] holds far more than the K^2 log^2(mM) primes the
	// distinctness argument of Lemma 16 consumes.
	d := uint64(100 * k * 64)
	p, err := nt.RandomPrime(rng, d, d*d)
	if err != nil {
		panic("l0: no prime: " + err.Error())
	}
	e := &Estimator{
		params: params,
		k:      k,
		maxRow: nt.Log2Ceil(params.N),
		p:      p,
		h1:     hash.NewPairwise(rng),
		h2:     hash.NewPairwise(rng),
		h3:     hash.NewKWise(rng, 8), // Theta(log(1/eps)/loglog(1/eps))-wise
		h4:     hash.NewPairwise(rng),
		u:      randomVector(rng, k, p),
		rows:   make(map[int][]uint64),
		small:  NewExactSmall(rng, 100),
		h2s:    hash.NewPairwise(rng),
		h3s:    hash.NewKWise(rng, 8),
		h4s:    hash.NewPairwise(rng),
	}
	e.singleRow = make([]uint64, 2*k)
	e.us = randomVector(rng, 2*k, p)
	if params.Windowed {
		e.rough = NewRoughF0(rng, 16)
		logN := float64(nt.Log2Ceil(params.N))
		e.floorRow = int64(8 * logN / math.Max(1, math.Log2(logN)))
		e.final = NewRoughL0Windowed(rng, params.N, params.Window+4)
	} else {
		e.final = NewRoughL0(rng, params.N)
	}
	e.seeds = e.h1.SpaceBits() + e.h2.SpaceBits() + e.h3.SpaceBits() +
		e.h4.SpaceBits() + e.h2s.SpaceBits() + e.h3s.SpaceBits() + e.h4s.SpaceBits()
	e.syncRows()
	return e
}

// RecommendedWindow returns a row window for Figure 7 in the paper's
// form 2*log2(4*alpha/eps), padded by the constant slack our rough
// estimators' looser factors consume (their O(1) factors are 32 and 110
// rather than 8, costing ~6 extra levels).
func RecommendedWindow(alpha, eps float64) int {
	if alpha < 1 {
		alpha = 1
	}
	if eps <= 0 || eps >= 1 {
		panic("l0: eps must be in (0,1)")
	}
	return 2*int(math.Ceil(math.Log2(4*alpha/eps))) + 6
}

func randomVector(rng *rand.Rand, n int, p uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % p
	}
	return v
}

// rowRange returns the maintained row interval.
func (e *Estimator) rowRange() (int, int) {
	if !e.params.Windowed {
		return 0, e.maxRow
	}
	est := e.floorRow
	if r := e.rough.Estimate(); r > est {
		est = r
	}
	// Center at i* = log2(16 * Lbar / K), Figure 7 step 3. The window is
	// asymmetric: the rough estimate Lbar only ever overshoots L0 (it
	// upper-bounds F0 >= L0), so the informative rows sit below the
	// center by up to log2 of the overshoot factor, never meaningfully
	// above it.
	center := nt.Log2Floor(uint64(16*est)/uint64(e.k) + 1)
	lo := center - e.params.Window
	hi := center + 2
	if lo < 0 {
		lo = 0
	}
	if hi > e.maxRow {
		hi = e.maxRow
	}
	return lo, hi
}

func (e *Estimator) syncRows() {
	lo, hi := e.rowRange()
	for j := range e.rows {
		if j < lo || j > hi {
			delete(e.rows, j)
		}
	}
	for j := lo; j <= hi; j++ {
		if _, ok := e.rows[j]; !ok {
			e.rows[j] = make([]uint64, e.k)
		}
	}
	if len(e.rows) > e.maxLiveRows {
		e.maxLiveRows = len(e.rows)
	}
}

// Update feeds one stream update.
func (e *Estimator) Update(i uint64, delta int64) {
	if delta == 0 {
		return // before hashing: zero-delta updates cost nothing
	}
	e.updateHashed(i, delta, e.h1.Field(i))
}

// updateHashed is Update with the level hash h1(i) pre-evaluated — the
// consumption point of the columnar pipeline's pre-hashed level column.
func (e *Estimator) updateHashed(i uint64, delta int64, h1v uint64) {
	if delta == 0 {
		return
	}
	if e.params.Windowed {
		e.rough.Update(i)
		e.syncRows()
	}
	e.final.Update(i, delta)
	e.small.Update(i, delta)

	dm := delta % int64(e.p)
	if dm < 0 {
		dm += int64(e.p)
	}
	d := uint64(dm)

	// Main matrix.
	row := hash.LSB(h1v, e.maxRow)
	if row > e.maxRow {
		row = e.maxRow
	}
	if bins, ok := e.rows[row]; ok {
		id := e.h2.Range(i, cube(e.k))
		bin := e.h3.Range(id, uint64(e.k))
		mult := e.u[e.h4.Range(id, uint64(e.k))]
		bins[bin] = nt.AddMod(bins[bin], nt.MulMod(d, mult, e.p), e.p)
	}

	// Single collapsed row (the 100 < L0 < K/32 regime of Lemma 17).
	ids := e.h2s.Range(i, cube(2*e.k))
	bins := e.h3s.Range(ids, uint64(2*e.k))
	mult := e.us[e.h4s.Range(ids, uint64(2*e.k))]
	e.singleRow[bins] = nt.AddMod(e.singleRow[bins], nt.MulMod(d, mult, e.p), e.p)
}

// UpdateBatch applies a batch of updates through the columnar pipeline
// (see UpdateColumns).
func (e *Estimator) UpdateBatch(batch []stream.Update) {
	b := core.GetBatch()
	b.LoadUpdates(batch)
	e.UpdateColumns(b)
	core.PutBatch(b)
}

// UpdateColumns consumes a pre-planned columnar batch: the level hash
// h1 is batch-evaluated into a contiguous column up front, then items
// apply in order (row liveness can change between items, so the apply
// stage itself stays per-item). State is identical to the scalar path.
func (e *Estimator) UpdateColumns(b *core.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	h1v := b.Col64(n)
	e.h1.FieldBatch(b.Idx, h1v)
	for j, i := range b.Idx {
		e.updateHashed(i, b.Delta[j], h1v[j])
	}
}

func cube(k int) uint64 {
	return uint64(k) * uint64(k) * uint64(k)
}

// occupancy counts nonzero bins.
func occupancy(bins []uint64) int {
	t := 0
	for _, b := range bins {
		if b != 0 {
			t++
		}
	}
	return t
}

// invertOccupancy returns the ball count A with E[T] = K(1-(1-1/K)^A),
// i.e. A = ln(1-T/K)/ln(1-1/K), clamped away from the T = K pole.
func invertOccupancy(t, k int) float64 {
	if t <= 0 {
		return 0
	}
	if t >= k {
		t = k - 1
	}
	return math.Log(1-float64(t)/float64(k)) / math.Log(1-1/float64(k))
}

// Estimate returns the (1 +- eps) L0 estimate (Theorem 9 for the full
// matrix, Theorem 10 for the windowed variant).
//
// Row selection note: the paper queries exactly i* = log(16R/K), which
// leaves Theta(K/32) balls in the queried row — meaningful only when
// K >= 3200 (eps <= 1/57). At laptop-scale K the selected row would hold
// a handful of balls, so we anchor at the paper's i* and probe the
// maintained rows nearest to it for a well-conditioned occupancy (load
// in [5%, 85%]) before inverting; ablation AB2 measures this
// substitution.
func (e *Estimator) Estimate() float64 {
	// Exact path: L0 <= 100 (Lemma 17 / Lemma 19).
	if n, ok := e.small.Count(); ok {
		return float64(n)
	}
	// Single-row path (Lemma 17's middle regime): the 2K-bin collapsed
	// row inverts accurately while its load is moderate, i.e. up to
	// about K/2 balls.
	tp := occupancy(e.singleRow)
	singleEst := invertOccupancy(tp, 2*e.k)
	if singleEst <= float64(e.k)/2 {
		return singleEst
	}
	// Main path. Each maintained row with a well-conditioned load gives
	// an independent scaled estimate (rows partition the items, so they
	// are disjoint subsamples); the median over them is both tighter and
	// more robust than the single paper row i* = log(16R/K), which at
	// laptop K holds only a handful of balls. Items land in row j with
	// probability 2^-(j+1), so row j's estimate is
	// invert(T_j) * 2^(j+1) (= 32R/K * balls in the paper's form when
	// j = i*).
	var ests []float64
	for j, bins := range e.rows {
		t := occupancy(bins)
		load := float64(t) / float64(e.k)
		if load < 0.05 || load > 0.85 {
			continue
		}
		ests = append(ests, invertOccupancy(t, e.k)*math.Ldexp(1, j+1))
	}
	if len(ests) == 0 {
		// No well-conditioned row (out-of-model stream); fall back to
		// the row nearest the paper's i* anchor.
		r := e.final.Estimate()
		iStar := 0
		if v := 16 * r / int64(e.k); v >= 2 {
			iStar = nt.Log2Floor(uint64(v))
		}
		best := -1
		for j := range e.rows {
			if best == -1 || absInt(j-iStar) < absInt(best-iStar) {
				best = j
			}
		}
		if best == -1 {
			return 0
		}
		return invertOccupancy(occupancy(e.rows[best]), e.k) * math.Ldexp(1, best+1)
	}
	sort.Float64s(ests)
	n := len(ests)
	if n%2 == 1 {
		return ests[n/2]
	}
	return (ests[n/2-1] + ests[n/2]) / 2
}

// Merge folds another estimator built from the same seed into this one.
// Every component is linear or monotone: bins add modulo the shared
// prime, the exact-small and rough structures merge, and the row window
// re-syncs at the merged rough estimate. For the unwindowed (Figure 6)
// variant the merge is exact — every counter equals the single-stream
// value; the windowed variant inherits the window-trajectory slack the
// alpha-property analysis already absorbs.
func (e *Estimator) Merge(other *Estimator) error {
	if other == nil {
		return fmt.Errorf("l0: merge with nil Estimator")
	}
	if e.params != other.params || e.k != other.k || e.p != other.p {
		return fmt.Errorf("l0: merging Estimators with different params (same seed/params required)")
	}
	if !e.h1.Equal(other.h1) || !e.h2.Equal(other.h2) || !e.h3.Equal(other.h3) || !e.h4.Equal(other.h4) ||
		!e.h2s.Equal(other.h2s) || !e.h3s.Equal(other.h3s) || !e.h4s.Equal(other.h4s) {
		return fmt.Errorf("l0: merging Estimators with different hash functions (same seed required)")
	}
	if !slicesEqual(e.u, other.u) || !slicesEqual(e.us, other.us) {
		return fmt.Errorf("l0: merging Estimators with different multiplier vectors (same seed required)")
	}
	if e.params.Windowed {
		if err := e.rough.Merge(other.rough); err != nil {
			return err
		}
	}
	if err := e.final.Merge(other.final); err != nil {
		return err
	}
	if err := e.small.Merge(other.small); err != nil {
		return err
	}
	for b := range e.singleRow {
		e.singleRow[b] = nt.AddMod(e.singleRow[b], other.singleRow[b], e.p)
	}
	for j, obins := range other.rows {
		if bins, ok := e.rows[j]; ok {
			for b := range bins {
				bins[b] = nt.AddMod(bins[b], obins[b], e.p)
			}
		} else {
			e.rows[j] = append([]uint64(nil), obins...)
		}
	}
	if other.maxLiveRows > e.maxLiveRows {
		e.maxLiveRows = other.maxLiveRows
	}
	e.syncRows()
	return nil
}

// Clone returns a deep copy sharing the (immutable) hash functions and
// multiplier vectors.
func (e *Estimator) Clone() *Estimator {
	c := &Estimator{
		params:   e.params,
		k:        e.k,
		maxRow:   e.maxRow,
		p:        e.p,
		h1:       e.h1,
		h2:       e.h2,
		h3:       e.h3,
		h4:       e.h4,
		u:        e.u,
		rows:     make(map[int][]uint64, len(e.rows)),
		floorRow: e.floorRow,
		final:    e.final.Clone(),
		small:    e.small.Clone(),
		singleRow: append([]uint64(nil),
			e.singleRow...),
		h2s:         e.h2s,
		h3s:         e.h3s,
		h4s:         e.h4s,
		us:          e.us,
		maxLiveRows: e.maxLiveRows,
		seeds:       e.seeds,
	}
	if e.rough != nil {
		c.rough = e.rough.Clone()
	}
	for j, bins := range e.rows {
		c.rows[j] = append([]uint64(nil), bins...)
	}
	return c
}

// LiveRows reports the number of maintained rows.
func (e *Estimator) LiveRows() int { return len(e.rows) }

// K returns the bins-per-row parameter.
func (e *Estimator) K() int { return e.k }

// SpaceBits charges live rows (and the peak live count) at log2(p) bits
// per bin, plus side structures and seeds.
func (e *Estimator) SpaceBits() int64 {
	perBin := int64(nt.BitsFor(e.p))
	main := int64(e.maxLiveRows) * int64(e.k) * perBin
	single := int64(2*e.k) * perBin
	uBits := int64(len(e.u)+len(e.us)) * perBin
	total := main + single + uBits + e.seeds + e.small.SpaceBits() + e.final.SpaceBits()
	if e.rough != nil {
		total += e.rough.SpaceBits()
	}
	return total
}

func slicesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
