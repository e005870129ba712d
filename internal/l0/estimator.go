package l0

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
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
	h1       *hash.KWise      // level hash: row = lsb(h1(i))
	h2       *hash.KWise      // [n] -> [K^3] perfect hash
	h3       *hash.KWise      // [K^3] -> [K], k-wise
	h4       *hash.KWise      // [K^3] -> [K], pairwise, selects u entry
	u        []uint64         // random multipliers in F_p
	rows     Window[[]uint64] // the maintained rows of K bins, indexed by row
	rough    *RoughF0         // R_t: drives the Figure 7 row window, and final's levels at the same events
	floorRow int64            // 8 log n / log log n clamp of Figure 7
	final    *RoughL0         // Lemma 20's constant-factor R for query-time row selection

	// Small-L0 side structures (Lemma 17 / Lemma 19).
	small         *ExactSmall
	singleRow     []uint64
	h2s, h3s, h4s *hash.KWise
	us            []uint64
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
	e.rows = NewWindow[[]uint64](e.maxRow, params.Windowed, 0, &rowStats)
	e.rows.Sync(e.rough, e.span, e.newRow)
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

// span returns the row interval Figure 7 maintains at rough estimate
// est: the rows around i* = log2(16 * Lbar / K) (step 3), Lbar =
// max(est, floor). The window is asymmetric: the rough estimate Lbar
// only ever overshoots L0 (it upper-bounds F0 >= L0), so the informative
// rows sit below the center by up to log2 of the overshoot factor, never
// meaningfully above it.
func (e *Estimator) span(est int64) (int, int) {
	center := nt.Log2Floor(uint64(16*max(est, e.floorRow))/uint64(e.k) + 1)
	return center - e.params.Window, center + 2
}

func (e *Estimator) newRow(int) *[]uint64 {
	bins := make([]uint64, e.k)
	return &bins
}

func copyRow(bins, dst *[]uint64) *[]uint64 {
	dst = core.OrNew(dst)
	*dst = append((*dst)[:0], *bins...)
	return dst
}

// Update feeds one stream update: rough estimate, then the row and
// level windows it produces, then the item.
func (e *Estimator) Update(i uint64, delta int64) {
	if delta == 0 {
		return // before hashing: zero-delta updates cost nothing
	}
	e.rows.Observe(e.rough, i, e.span, e.newRow)
	e.final.Update(e.rows.syncedAt, i, delta)
	e.small.Update(i, delta)

	// Main matrix.
	if row := e.rows.At(min(hash.LSB(e.h1.Field(i), e.maxRow), e.maxRow)); row != nil {
		bins := *row
		id := e.h2.Range(i, cube(e.k))
		bin := e.h3.Range(id, uint64(e.k))
		mult := e.u[e.h4.Range(id, uint64(e.k))]
		bins[bin] = nt.AddMod(bins[bin], e.term(delta, mult), e.p)
	}
	// Single collapsed row (the 100 < L0 < K/32 regime of Lemma 17).
	ids := e.h2s.Range(i, cube(2*e.k))
	bin := e.h3s.Range(ids, uint64(2*e.k))
	mult := e.us[e.h4s.Range(ids, uint64(2*e.k))]
	e.singleRow[bin] = nt.AddMod(e.singleRow[bin], e.term(delta, mult), e.p)
}

// term returns delta * mult mod p, the amount a bin accumulates.
func (e *Estimator) term(delta int64, mult uint64) uint64 {
	return e.scale(residue(delta, e.p), mult)
}

// scale returns s * mult mod p for a residue s. Plus and minus one —
// most of any real stream, coalesced or not — need no 128-bit division.
func (e *Estimator) scale(s, mult uint64) uint64 {
	if mult < e.p {
		switch {
		case s == 1:
			return mult
		case s == e.p-1 && mult == 0:
			return 0
		case s == e.p-1:
			return e.p - mult
		}
	}
	return nt.MulMod(s, mult, e.p)
}

// UpdateColumns consumes a columnar batch: plan → hash the distinct
// keys → apply through the ordinals, cut at the window events
// (Window.CutPlanned). Nothing here draws randomness, so state is
// bit-identical to per-item Update.
func (e *Estimator) UpdateColumns(b *core.Batch) { ZeroFreeRuns(b, e.updateRun) }

// updateRun applies a zero-free batch of at most columnChunk updates:
// the small-L0 side structure whole, then each run between two R_t
// events to final's levels (synced at the rows' R_t) and the rows. The
// order-sensitive two apply update by update; the bins of the collapsed
// row and of the main matrix are sums mod p, so a run adds (sum of the
// key's deltas mod p) * u once per distinct key — exact whatever the
// deltas.
func (e *Estimator) updateRun(b *core.Batch) {
	keys, slot := core.Distinct(b)
	d := len(keys)
	col := b.Col64(9 * d)
	e.small.UpdateColumn(b, col)

	row, sum, bin, mult, lvl, scratch := col[:d], col[d:2*d], col[2*d:3*d], col[3*d:4*d], col[4*d:5*d], col[5*d:]
	ids := scratch[:d]
	e.h2s.RangeBatch(keys, cube(2*e.k), ids)
	e.h3s.RangeBatch(ids, uint64(2*e.k), bin)
	e.h4s.RangeBatch(ids, uint64(2*e.k), mult)
	e.h1.FieldBatch(keys, row)
	for o, hv := range row {
		row[o] = uint64(min(hash.LSB(hv, e.maxRow), e.maxRow)) // lsb, clamped
	}
	e.final.levelColumn(keys, lvl)
	e.rows.CutPlanned(e.rough, b, scratch, e.span, e.newRow, func(lo, hi, seen int) {
		e.final.applyRun(e.rows.syncedAt, b, lo, hi, seen, lvl, scratch)
		clear(sum[:seen])
		for j, delta := range b.Delta[lo:hi] {
			o := slot[lo+j]
			sum[o] = addReduced(sum[o], residue(delta, e.p), e.p)
		}
		// Collapsed row, and the keys the main matrix keeps under this
		// window: their ordinals first, then h2, h3 and h4 over them.
		live, at := scratch[:0:d], scratch[d:d:2*d]
		for o, s := range sum[:seen] {
			if s == 0 {
				continue
			}
			e.singleRow[bin[o]] = addReduced(e.singleRow[bin[o]], e.scale(s, e.us[mult[o]]), e.p)
			if e.rows.At(int(row[o])) != nil {
				live, at = append(live, keys[o]), append(at, uint64(o))
			}
		}
		m := len(live)
		id, bins := scratch[2*d:2*d+m], scratch[3*d:3*d+m]
		e.h2.RangeBatch(live, cube(e.k), id)
		e.h3.RangeBatch(id, uint64(e.k), bins)
		e.h4.RangeBatch(id, uint64(e.k), live) // the keys are spent: their column takes the multipliers
		for j, o := range at {
			r := *e.rows.At(int(row[o]))
			r[bins[j]] = addReduced(r[bins[j]], e.scale(sum[o], e.u[live[j]]), e.p)
		}
	})
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
	for j, bins := range e.rows.Each {
		t := occupancy(*bins)
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
		for j := range e.rows.Each {
			if best == -1 || absInt(j-iStar) < absInt(best-iStar) {
				best = j
			}
		}
		if best == -1 {
			return 0
		}
		return invertOccupancy(occupancy(*e.rows.At(best)), e.k) * math.Ldexp(1, best+1)
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
// prime, the exact-small and rough structures merge, and the row and
// level windows re-sync at the merged rough estimate. For the
// unwindowed (Figure 6) variant the merge is exact — every counter
// equals the single-stream value; the windowed variant inherits the
// window-trajectory slack the alpha-property analysis already absorbs.
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
	if !slices.Equal(e.u, other.u) || !slices.Equal(e.us, other.us) {
		return fmt.Errorf("l0: merging Estimators with different multiplier vectors (same seed required)")
	}
	if e.params.Windowed {
		if err := e.rough.Merge(other.rough); err != nil {
			return err
		}
	}
	if err := e.small.Merge(other.small); err != nil {
		return err
	}
	for b := range e.singleRow {
		e.singleRow[b] = nt.AddMod(e.singleRow[b], other.singleRow[b], e.p)
	}
	addRow := func(dst, src *[]uint64) error {
		bins, obins := *dst, *src
		for b := range bins {
			bins[b] = nt.AddMod(bins[b], obins[b], e.p)
		}
		return nil
	}
	if err := e.rows.Merge(&other.rows, addRow, copyRow); err != nil {
		return err
	}
	e.rows.Sync(e.rough, e.span, e.newRow)
	return e.final.Merge(other.final, e.rows.syncedAt)
}

// CloneInto returns a deep copy sharing the (immutable) hash functions
// and multiplier vectors, written into dst (nil: a new one), an earlier
// copy nobody else holds.
func (e *Estimator) CloneInto(dst *Estimator) *Estimator {
	dst = core.OrNew(dst)
	c := *e
	c.final = e.final.CloneInto(dst.final)
	c.small = e.small.CloneInto(dst.small)
	c.singleRow = append(dst.singleRow[:0], e.singleRow...)
	if e.rough != nil {
		c.rough = e.rough.CloneInto(dst.rough)
	}
	c.rows = e.rows.Clone(&dst.rows, copyRow)
	*dst = c
	return dst
}

// LiveRows reports the number of maintained rows.
func (e *Estimator) LiveRows() int { return e.rows.Len() }

// K returns the bins-per-row parameter.
func (e *Estimator) K() int { return e.k }

// SpaceBits charges live rows (and the peak live count) at log2(p) bits
// per bin, plus side structures and seeds.
func (e *Estimator) SpaceBits() int64 {
	perBin := int64(nt.BitsFor(e.p))
	main := int64(e.rows.Peak()) * int64(e.k) * perBin
	single := int64(2*e.k) * perBin
	uBits := int64(len(e.u)+len(e.us)) * perBin
	total := main + single + uBits + e.small.SpaceBits() + e.final.SpaceBits()
	for _, h := range []*hash.KWise{e.h1, e.h2, e.h3, e.h4, e.h2s, e.h3s, e.h4s} {
		total += h.SpaceBits()
	}
	if e.rough != nil {
		total += e.rough.SpaceBits()
	}
	return total
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
