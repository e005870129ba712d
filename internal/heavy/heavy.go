// Package heavy implements the paper's heavy hitters algorithms and
// their baselines:
//
//   - AlphaL1 (Section 3): the alpha-property L1 epsilon-heavy-hitters
//     algorithm — a CSSS sketch (Figure 2) plus an L1 scale estimate R.
//     In the strict turnstile model R is an exact counter (Theorem 4,
//     high probability); in the general model R is a constant-factor
//     Cauchy median estimate (Fact 1 / Theorem 3). Space is
//     O(eps^-1 log n log(alpha log n / eps)), replacing the turnstile
//     Omega(eps^-1 log^2 n) lower bound's second log n factor.
//   - CountSketchHH / CountMinHH: the unbounded-deletion baselines.
//   - MisraGries: the insertion-only (alpha = 1) comparison point.
//   - AlphaL2 (Appendix A): L2 heavy hitters for alpha-property streams
//     via an insertion-only eps/alpha L2 HH over I+D plus a Count-Sketch
//     verification pass over f, in O((alpha/eps)^2 ...) space.
package heavy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cauchy"
	"repro/internal/core"
	"repro/internal/csss"
	"repro/internal/nt"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/topk"
)

// Mode selects how the L1 scale R is obtained.
type Mode int

const (
	// Strict keeps an exact ||f||_1 counter (valid for strict turnstile
	// streams; Theorem 4).
	Strict Mode = iota
	// General estimates ||f||_1 within a constant factor with Cauchy
	// sketches (Theorem 3).
	General
)

// AlphaL1 is the Section 3 heavy hitters structure.
type AlphaL1 struct {
	mode    Mode
	eps     float64
	sk      *csss.Sketch
	tracker *topk.Tracker
	n       uint64

	l1Exact int64          // Strict mode: running sum of deltas
	l1Est   *cauchy.Sketch // General mode: constant-factor estimator
	maxL1   int64

	batchSeen map[uint64]struct{} // scratch for stream.DistinctColumn
	distinct  []uint64
	estBuf    []float64 // scratch for the batched candidate refresh
}

// AlphaL1Params configures AlphaL1.
type AlphaL1Params struct {
	N     uint64
	Eps   float64
	Mode  Mode
	Alpha float64 // used to scale the CSSS sample budget
	// Quality scales the CSSS column count K = Quality/eps (the paper's
	// K = 32/eps; 8 is the laptop-scaled default used when 0).
	Quality float64
	// Rows overrides the CSSS depth (default 7).
	Rows int
	// S overrides the CSSS per-row sample budget (default
	// csss.RecommendedS(alpha, eps, n)).
	S int64
}

// NewAlphaL1 builds the alpha-property heavy hitters structure.
func NewAlphaL1(rng *rand.Rand, p AlphaL1Params) *AlphaL1 {
	if p.Eps <= 0 || p.Eps >= 1 {
		panic(fmt.Sprintf("heavy: eps must be in (0,1), got %v", p.Eps))
	}
	if p.Alpha < 1 {
		p.Alpha = 1
	}
	q := p.Quality
	if q <= 0 {
		q = 8
	}
	rows := p.Rows
	if rows <= 0 {
		rows = 7
	}
	s := p.S
	if s <= 0 {
		s = csss.RecommendedS(p.Alpha, p.Eps, p.N)
	}
	k := int(math.Ceil(q / p.Eps))
	h := &AlphaL1{
		mode:    p.Mode,
		eps:     p.Eps,
		sk:      csss.New(rng, csss.Params{Rows: rows, K: k, S: s}),
		tracker: topk.New(4 * int(math.Ceil(1/p.Eps))),
		n:       p.N,
	}
	if p.Mode == General {
		// Fact 1: a constant-factor L1 suffices; 32 median rows give
		// (1 +- 1/4) with good probability.
		h.l1Est = cauchy.NewSketch(rng, 4, 32, 4)
	}
	return h
}

// Update feeds one stream update.
func (h *AlphaL1) Update(i uint64, delta int64) {
	h.ingest(i, delta)
	h.tracker.Offer(i, h.sk.Query(i))
}

// ingest feeds the sketch and the L1 scale without touching the
// candidate tracker.
func (h *AlphaL1) ingest(i uint64, delta int64) {
	h.sk.Update(i, delta)
	switch h.mode {
	case Strict:
		h.l1Exact += delta
		if h.l1Exact > h.maxL1 {
			h.maxL1 = h.l1Exact
		}
	case General:
		h.l1Est.Update(i, delta)
	}
}

// UpdateBatch feeds a batch of updates through the columnar pipeline
// (see UpdateColumns).
func (h *AlphaL1) UpdateBatch(batch []stream.Update) {
	b := core.GetBatch()
	b.LoadUpdates(batch)
	h.UpdateColumns(b)
	core.PutBatch(b)
}

// UpdateColumns feeds a pre-planned columnar batch. The CSSS sketch
// consumes the columns directly (each run applies row-major off one
// batch hash evaluation of the updates its thin step kept); the L1
// scale ingests the delta column; the
// candidate tracker is refreshed once per DISTINCT index at the end of
// the batch — the CSSS median query is the dominant per-update cost of
// the scalar path, and an index updated k times in one batch needs
// only its final estimate offered.
func (h *AlphaL1) UpdateColumns(b *core.Batch) {
	h.sk.UpdateColumns(b)
	switch h.mode {
	case Strict:
		for _, d := range b.Delta {
			h.l1Exact += d
			if h.l1Exact > h.maxL1 {
				h.maxL1 = h.l1Exact
			}
		}
	case General:
		h.l1Est.UpdateColumns(b)
	}
	if h.batchSeen == nil {
		h.batchSeen = make(map[uint64]struct{}, 256)
	}
	h.distinct = stream.DistinctColumn(h.distinct[:0], h.batchSeen, b.Idx)
	// Batched refresh: hash ALL distinct indices in one pass (reusing
	// the batch's column scratch — the sketch is done with it) and
	// offer the fresh estimates.
	if cap(h.estBuf) < len(h.distinct) {
		h.estBuf = make([]float64, len(h.distinct))
	}
	est := h.estBuf[:len(h.distinct)]
	h.sk.QueryColumns(b, h.distinct, est)
	for j, i := range h.distinct {
		h.tracker.Offer(i, est[j])
	}
}

// scale returns R, the L1 scale estimate.
func (h *AlphaL1) scale() float64 {
	if h.mode == Strict {
		return float64(h.l1Exact)
	}
	return h.l1Est.MedianEstimate()
}

// HeavyHitters returns every tracked item whose CSSS estimate crosses
// (3 eps / 4) R — Section 3's decision rule, which returns all items
// with |f_i| >= eps ||f||_1 and none below (eps/2) ||f||_1 with the
// stated probability. The candidate set re-estimates through ONE
// columnar QueryColumns sweep (one batch hash pass, row-major table
// reads) instead of one Query per candidate; estimates, and hence the
// returned set, are bit-identical either way.
func (h *AlphaL1) HeavyHitters() []uint64 {
	r := h.scale()
	thr := 3 * h.eps * r / 4
	cand := h.tracker.Candidates()
	if len(cand) == 0 {
		return nil
	}
	if cap(h.estBuf) < len(cand) {
		h.estBuf = make([]float64, len(cand))
	}
	est := h.estBuf[:len(cand)]
	b := core.GetBatch()
	h.sk.QueryColumns(b, cand, est)
	core.PutBatch(b)
	var out []uint64
	for j, i := range cand {
		if abs(est[j]) >= thr {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Query returns the CSSS point estimate for one item.
func (h *AlphaL1) Query(i uint64) float64 { return h.sk.Query(i) }

// QueryColumns fills est[j] with Query(keys[j]) for the whole index
// set in one batch hash pass — the batched point-query twin of
// UpdateColumns, delegating to the CSSS row-major gather. b supplies
// the reusable hash-column scratch; answers are bit-identical to
// Query's.
func (h *AlphaL1) QueryColumns(b *core.Batch, keys []uint64, est []float64) {
	h.sk.QueryColumns(b, keys, est)
}

// Merge folds another AlphaL1 built from the same seed into this one:
// the CSSS sketches and L1 scale merge, then the union of both
// candidate sets is re-offered against the merged sketch, so the
// tracker holds the top candidates under post-merge estimates. other
// may be mutated (its sketch may be thinned to align sampling rates)
// and must not be used afterwards.
func (h *AlphaL1) Merge(other *AlphaL1) error {
	if other == nil {
		return fmt.Errorf("heavy: merge with nil AlphaL1")
	}
	if h.mode != other.mode || h.eps != other.eps || h.n != other.n {
		return fmt.Errorf("heavy: merging AlphaL1 with different params (same seed/params required)")
	}
	if err := h.sk.Merge(other.sk); err != nil {
		return err
	}
	switch h.mode {
	case Strict:
		h.l1Exact += other.l1Exact
		if h.l1Exact > h.maxL1 {
			h.maxL1 = h.l1Exact
		}
		if other.maxL1 > h.maxL1 {
			h.maxL1 = other.maxL1
		}
	case General:
		if err := h.l1Est.Merge(other.l1Est); err != nil {
			return err
		}
	}
	return h.tracker.Merge(other.tracker, h.sk.Query)
}

// Clone returns a deep copy (snapshot) safe to hand to another
// goroutine for merge-and-query while the original keeps ingesting.
func (h *AlphaL1) Clone() *AlphaL1 {
	c := &AlphaL1{
		mode:    h.mode,
		eps:     h.eps,
		sk:      h.sk.Clone(),
		tracker: h.tracker.Clone(),
		n:       h.n,
		l1Exact: h.l1Exact,
		maxL1:   h.maxL1,
	}
	if h.l1Est != nil {
		c.l1Est = h.l1Est.Clone()
	}
	return c
}

// SpaceBits charges the CSSS sketch, the scale estimator, and the
// candidate tracker.
func (h *AlphaL1) SpaceBits() int64 {
	total := h.sk.SpaceBits() + h.tracker.SpaceBits(h.n)
	if h.mode == Strict {
		total += int64(nt.BitsFor(uint64(h.maxL1))) + 1
	} else {
		total += h.l1Est.SpaceBits()
	}
	return total
}

// CountSketchHH is the unbounded-deletion baseline: a full-width
// Count-Sketch (counters O(log n) bits) plus the same candidate tracking
// and decision rule.
type CountSketchHH struct {
	eps     float64
	sk      *sketch.CountSketch
	tracker *topk.Tracker
	mode    Mode
	n       uint64
	l1Exact int64
	maxL1   int64
	l1Est   *cauchy.Sketch

	batchSeen map[uint64]struct{}
	distinct  []uint64
}

// NewCountSketchHH builds the baseline with K = ceil(quality/eps)
// columns x 6 and depth rows (defaults mirror NewAlphaL1).
func NewCountSketchHH(rng *rand.Rand, n uint64, eps float64, mode Mode, quality float64, rows int) *CountSketchHH {
	if eps <= 0 || eps >= 1 {
		panic("heavy: eps must be in (0,1)")
	}
	if quality <= 0 {
		quality = 8
	}
	if rows <= 0 {
		rows = 7
	}
	k := uint64(6 * int(math.Ceil(quality/eps)))
	b := &CountSketchHH{
		eps:     eps,
		sk:      sketch.NewCountSketch(rng, rows, k),
		tracker: topk.New(4 * int(math.Ceil(1/eps))),
		mode:    mode,
		n:       n,
	}
	if mode == General {
		b.l1Est = cauchy.NewSketch(rng, 4, 32, 4)
	}
	return b
}

// Update feeds one update.
func (b *CountSketchHH) Update(i uint64, delta int64) {
	b.ingest(i, delta)
	b.tracker.Offer(i, float64(b.sk.Query(i)))
}

// ingest feeds the sketch and the L1 scale without touching the
// candidate tracker — the shared body of Update and UpdateBatch.
func (b *CountSketchHH) ingest(i uint64, delta int64) {
	b.sk.Update(i, delta)
	if b.mode == Strict {
		b.l1Exact += delta
		if b.l1Exact > b.maxL1 {
			b.maxL1 = b.l1Exact
		}
	} else {
		b.l1Est.Update(i, delta)
	}
}

// UpdateBatch feeds a batch of updates through the columnar pipeline
// (see AlphaL1.UpdateColumns for the distinct-index tracker refresh).
func (b *CountSketchHH) UpdateBatch(batch []stream.Update) {
	cb := core.GetBatch()
	cb.LoadUpdates(batch)
	b.UpdateColumns(cb)
	core.PutBatch(cb)
}

// UpdateColumns feeds a pre-planned columnar batch (the baseline's
// dense Count-Sketch applies it row-major off one batch hash pass).
func (b *CountSketchHH) UpdateColumns(cb *core.Batch) {
	b.sk.UpdateColumns(cb)
	if b.mode == Strict {
		for _, d := range cb.Delta {
			b.l1Exact += d
			if b.l1Exact > b.maxL1 {
				b.maxL1 = b.l1Exact
			}
		}
	} else {
		b.l1Est.UpdateColumns(cb)
	}
	if b.batchSeen == nil {
		b.batchSeen = make(map[uint64]struct{}, 256)
	}
	b.distinct = stream.DistinctColumn(b.distinct[:0], b.batchSeen, cb.Idx)
	b.tracker.OfferAll(b.distinct, func(i uint64) float64 { return float64(b.sk.Query(i)) })
}

// HeavyHitters applies the same 3 eps R / 4 rule as AlphaL1.
func (b *CountSketchHH) HeavyHitters() []uint64 {
	r := float64(b.l1Exact)
	if b.mode == General {
		r = b.l1Est.MedianEstimate()
	}
	thr := 3 * b.eps * r / 4
	var out []uint64
	for _, i := range b.tracker.Candidates() {
		if math.Abs(float64(b.sk.Query(i))) >= thr {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b2 int) bool { return out[a] < out[b2] })
	return out
}

// SpaceBits charges the dense sketch, scale estimator and tracker.
func (b *CountSketchHH) SpaceBits() int64 {
	total := b.sk.SpaceBits() + b.tracker.SpaceBits(b.n)
	if b.mode == Strict {
		total += int64(nt.BitsFor(uint64(b.maxL1))) + 1
	} else {
		total += b.l1Est.SpaceBits()
	}
	return total
}

// MisraGries is the classic insertion-only deterministic heavy hitters
// summary (alpha = 1 reference point): k counters answer phi = 1/k
// frequency queries with additive m/k error.
type MisraGries struct {
	k        int
	counters map[uint64]int64
	m        int64
}

// NewMisraGries builds a summary with ceil(2/eps) counters.
func NewMisraGries(eps float64) *MisraGries {
	if eps <= 0 || eps >= 1 {
		panic("heavy: eps must be in (0,1)")
	}
	k := int(math.Ceil(2 / eps))
	return &MisraGries{k: k, counters: make(map[uint64]int64, k+1)}
}

// Update feeds an insertion-only update (delta must be positive).
func (mg *MisraGries) Update(i uint64, delta int64) {
	if delta <= 0 {
		panic("heavy: MisraGries requires insertion-only input")
	}
	mg.m += delta
	if c, ok := mg.counters[i]; ok || len(mg.counters) < mg.k {
		mg.counters[i] = c + delta
		return
	}
	// Decrement-all step.
	dec := delta
	for j, c := range mg.counters {
		if c < dec {
			dec = c
		}
		_ = j
	}
	for j := range mg.counters {
		mg.counters[j] -= dec
		if mg.counters[j] <= 0 {
			delete(mg.counters, j)
		}
	}
	if rem := delta - dec; rem > 0 && len(mg.counters) < mg.k {
		mg.counters[i] = rem
	}
}

// HeavyHitters returns items with counter >= (eps/2) m for eps = 2/k.
func (mg *MisraGries) HeavyHitters() []uint64 {
	thr := mg.m / int64(mg.k)
	var out []uint64
	for i, c := range mg.counters {
		if c >= thr {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Estimate returns the summary's frequency estimate.
func (mg *MisraGries) Estimate(i uint64) int64 { return mg.counters[i] }

// SpaceBits charges k (id, counter) slots.
func (mg *MisraGries) SpaceBits() int64 {
	return int64(mg.k) * int64(64+nt.BitsFor(uint64(mg.m)))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
