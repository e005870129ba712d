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
//   - CountSketchHH: the unbounded-deletion baseline.
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

// l1Scale is R, the L1 scale the 3 eps R / 4 rule thresholds against —
// stated once for AlphaL1 and its dense baseline. In the strict
// turnstile model R is an exact running sum (Theorem 4); in the general
// model it is a constant-factor Cauchy median (Fact 1 / Theorem 3), and
// l1Est is nil exactly when the scale is exact.
type l1Scale struct {
	l1Exact int64          // Strict mode: running sum of deltas
	maxL1   int64          // Strict mode: high-water mark, for SpaceBits
	l1Est   *cauchy.Sketch // General mode: constant-factor estimator
}

// The general scale's Cauchy sketch dimensions (r, r').
const l1EstR, l1EstRPrime = 4, 32

func newL1Scale(rng *rand.Rand, mode Mode) l1Scale {
	if mode == Strict {
		return l1Scale{}
	}
	// Fact 1: a constant-factor L1 suffices; 32 median rows give
	// (1 +- 1/4) with good probability.
	return l1Scale{l1Est: cauchy.NewSketch(rng, l1EstR, l1EstRPrime, 4)}
}

func (r *l1Scale) add(delta int64) {
	r.l1Exact += delta
	r.maxL1 = max(r.maxL1, r.l1Exact)
}

func (r *l1Scale) update(i uint64, delta int64) {
	if r.l1Est != nil {
		r.l1Est.Update(i, delta)
		return
	}
	r.add(delta)
}

func (r *l1Scale) updateColumns(b *core.Batch) {
	if r.l1Est != nil {
		r.l1Est.UpdateColumns(b)
		return
	}
	for _, d := range b.Delta {
		r.add(d)
	}
}

// merge folds another scale of the same mode into r.
func (r *l1Scale) merge(other *l1Scale) error {
	if r.l1Est != nil {
		return r.l1Est.Merge(other.l1Est)
	}
	r.add(other.l1Exact)
	r.maxL1 = max(r.maxL1, other.maxL1)
	return nil
}

func (r *l1Scale) value() float64 {
	if r.l1Est != nil {
		return r.l1Est.MedianEstimate()
	}
	return float64(r.l1Exact)
}

func (r *l1Scale) spaceBits() int64 {
	if r.l1Est != nil {
		return r.l1Est.SpaceBits()
	}
	return int64(nt.BitsFor(uint64(r.maxL1))) + 1
}

func (r *l1Scale) cloneInto(dst *l1Scale) l1Scale {
	c := *r
	if r.l1Est != nil {
		c.l1Est = r.l1Est.CloneInto(dst.l1Est)
	}
	return c
}

// AlphaL1 is the Section 3 heavy hitters structure.
type AlphaL1 struct {
	eps     float64
	sk      *csss.Sketch
	tracker *topk.Tracker
	n       uint64
	scale   l1Scale

	refresh topk.Refresher[float64]
	over    l1Scale // HeavyHittersOver's merged scale, scratch
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
	h := &AlphaL1{
		eps:     p.Eps,
		sk:      csss.New(rng, p.sketchParams()),
		tracker: topk.New(l1TrackerCap(p.Eps)),
		n:       p.N,
	}
	h.scale = newL1Scale(rng, p.Mode) // after the sketch: the rng draw order is part of the seed contract
	return h
}

// sketchParams resolves the CSSS parameters NewAlphaL1 builds with.
func (p AlphaL1Params) sketchParams() csss.Params {
	if p.Eps <= 0 || p.Eps >= 1 {
		panic(fmt.Sprintf("heavy: eps must be in (0,1), got %v", p.Eps))
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
		s = csss.RecommendedS(max(p.Alpha, 1), p.Eps, p.N)
	}
	// 2^40 columns is beyond any memory; the clamp keeps StateLen in
	// range for any Config.
	return csss.Params{Rows: rows, K: int(min(math.Ceil(q/p.Eps), 1<<40)), S: s}
}

// StateLen is the least encoded length of an AlphaL1 built with p: it
// tracks no candidates and its table packs one byte a counter. Every
// state of that shape holds it, and it is known before anything is
// allocated.
func (p AlphaL1Params) StateLen() int {
	n := csss.StateLen(p.sketchParams()) + topk.MinLen
	if p.Mode == General {
		return n + cauchy.SketchStateLen(l1EstR, l1EstRPrime)
	}
	return n + 16
}

// l1TrackerCap is the candidate capacity at sensitivity eps: at most
// 1/eps items can be eps-heavy, kept with a factor 4 of slack.
func l1TrackerCap(eps float64) int { return 4 * int(math.Ceil(1/eps)) }

// Update feeds one stream update.
func (h *AlphaL1) Update(i uint64, delta int64) {
	h.sk.Update(i, delta)
	h.scale.update(i, delta)
	h.tracker.Offer(i, h.sk.Query(i))
}

// UpdateColumns feeds a pre-planned columnar batch. The CSSS sketch
// hashes the batch's distinct indices once and applies every run
// through them, the candidate tracker is refreshed once per distinct
// index from those same bucket and sign columns (topk.Refresher; the
// refresh runs before anything else sizes the batch's column scratch
// they live in), and the L1 scale ingests the delta column.
func (h *AlphaL1) UpdateColumns(b *core.Batch) {
	if !core.Plannable(b) {
		core.Split(b, h.UpdateColumns)
		return
	}
	cols, signs := h.sk.UpdateColumns(b)
	h.refresh.OfferHashed(h.tracker, b, cols, signs, h.sk)
	h.scale.updateColumns(b)
}

// HeavyHitters returns every tracked item whose CSSS estimate crosses
// (3 eps / 4) R — Section 3's decision rule, which returns all items
// with |f_i| >= eps ||f||_1 and none below (eps/2) ||f||_1 with the
// stated probability. The candidate set re-estimates through ONE
// columnar EstimateHashed sweep (row-major table reads) over the bucket
// and sign columns the tracker kept when it admitted each candidate, so
// a read hashes nothing — unless a scalar Update or a decode admitted
// candidates without their columns, in which case the read hashes every
// candidate once; estimates, and hence the returned set, are
// bit-identical to one Query per candidate. Candidates and estimates
// live in scratch: the answer is the one allocation.
func (h *AlphaL1) HeavyHitters() []uint64 {
	thr := 3 * h.eps * h.scale.value() / 4
	b := core.GetBatch()
	defer core.PutBatch(b)
	cand, est := h.refresh.Estimates(h.tracker, b, h.sk)
	var out []uint64
	for j, i := range cand {
		if math.Abs(est[j]) >= thr {
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
// MergeAll with one part, in place. other is only read.
func (h *AlphaL1) Merge(other *AlphaL1) error {
	_, err := h.MergeAll(h, []*AlphaL1{other})
	return err
}

// MergeAll returns h merged with others, built from the same seed,
// written into dst (nil, h itself — in place — or an earlier result
// nobody else holds; never one of others). The CSSS tables merge as the
// chain of pairwise Merges would, to the same bytes and draws
// (csss.Sketch.MergeAll); the rest is finish, the step Rerank shares.
// With no others, dst holds h's tables and h's candidates re-ranked
// against them. The parts are only read.
func (h *AlphaL1) MergeAll(dst *AlphaL1, others []*AlphaL1) (*AlphaL1, error) {
	sks, err := h.tables(others)
	if err != nil {
		return nil, err
	}
	dst = core.OrNew(dst)
	sk, err := h.sk.MergeAll(dst.sk, sks)
	if err != nil {
		return nil, err
	}
	return dst.finish(sk, h, others)
}

// tables checks that others merge with h and returns their CSSS
// sketches.
func (h *AlphaL1) tables(others []*AlphaL1) ([]*csss.Sketch, error) {
	sks := make([]*csss.Sketch, len(others))
	for j, o := range others {
		if err := h.admits(o); err != nil {
			return nil, err
		}
		sks[j] = o.sk
	}
	return sks, nil
}

// admits reports whether o merges with h.
func (h *AlphaL1) admits(o *AlphaL1) error {
	if o == nil {
		return fmt.Errorf("heavy: merge with nil AlphaL1")
	}
	if (h.scale.l1Est == nil) != (o.scale.l1Est == nil) || h.eps != o.eps || h.n != o.n {
		return fmt.Errorf("heavy: merging AlphaL1 with different params (same seed/params required)")
	}
	return nil
}

// finish completes a union into dst once sk holds the union's table:
// first's L1 scale merged with each of others' in order, and the
// candidates of every part re-ranked ONCE against sk
// (topk.Refresher.MergeAll), so the tracker holds the top candidates
// of the union under its estimates whatever order the parts come in.
func (dst *AlphaL1) finish(sk *csss.Sketch, first *AlphaL1, others []*AlphaL1) (*AlphaL1, error) {
	scale, err := mergeScales(&dst.scale, first, others)
	if err != nil {
		return nil, err
	}
	trackers := make([]*topk.Tracker, 1+len(others))
	trackers[0] = first.tracker
	for j, o := range others {
		trackers[j+1] = o.tracker
	}
	b := core.GetBatch()
	defer core.PutBatch(b)
	tracker, err := dst.refresh.MergeAll(dst.tracker, trackers, b, sk)
	if err != nil {
		return nil, err
	}
	*dst = AlphaL1{eps: first.eps, sk: sk, tracker: tracker, n: first.n, scale: scale, refresh: dst.refresh, over: dst.over}
	return dst, nil
}

// mergeScales returns first's L1 scale merged with each of others' in
// order, written into into's storage — or, when into is first's own
// scale, merged in place. A union's scale is this merge; finish and
// HeavyHittersOver both take it here, so they agree on it.
func mergeScales(into *l1Scale, first *AlphaL1, others []*AlphaL1) (l1Scale, error) {
	scale := first.scale
	if into != &first.scale {
		scale = first.scale.cloneInto(into)
	}
	for _, o := range others {
		if err := scale.merge(&o.scale); err != nil {
			return l1Scale{}, err
		}
	}
	return scale, nil
}

// Shift moves h's table by add's minus sub's (csss.Sketch.Shift):
// when h's table is the sum of its parts' at one exponent, replacing
// sub by add among them keeps it so. sub may be nil. Only the table
// and its position move — the scale, maxCount and candidates wait for
// Rerank — and a refusal changes nothing.
func (h *AlphaL1) Shift(add, sub *AlphaL1) error {
	if err := h.admits(add); err != nil {
		return err
	}
	if sub == nil {
		return h.sk.Shift(add.sk, nil)
	}
	if err := h.admits(sub); err != nil {
		return err
	}
	return h.sk.Shift(add.sk, sub.sk)
}

// Rerank is MergeAll's finish over a table that already is the sum of
// parts' (built by MergeAll's summed pass, then moved by Shift): the
// table's maxCount is set as that pass sets it and everything else as
// finish does, so h ends byte for byte as MergeAll(h, parts[0],
// parts[1:]) would leave it. No part is h, and none is written.
func (h *AlphaL1) Rerank(parts []*AlphaL1) error {
	if len(parts) == 0 {
		return fmt.Errorf("heavy: re-rank over no parts")
	}
	sks, err := h.tables(parts)
	if err != nil {
		return err
	}
	h.sk.MaxCountOf(sks)
	_, err = h.finish(h.sk, parts[0], parts[1:])
	return err
}

// HeavyHittersOver returns what Rerank(parts) followed by HeavyHitters
// returns, without writing h's tracker, scale or table: the parts' L1
// scales are merged in part order into scratch, and the candidates of
// every part whose estimate against h's table reaches (3 eps / 4) R are
// read off the parts' slabs (topk.Refresher.Over). h's table must be
// the sum of the parts', as for Rerank; no part is h, and none is
// written. MergeCounts then reports the candidates that reached the
// threshold and how many were returned.
func (h *AlphaL1) HeavyHittersOver(parts []*AlphaL1) ([]uint64, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("heavy: heavy hitters over no parts")
	}
	trackers := make([]*topk.Tracker, len(parts))
	for j, o := range parts {
		if err := h.admits(o); err != nil {
			return nil, err
		}
		trackers[j] = o.tracker
	}
	over, err := mergeScales(&h.over, parts[0], parts[1:])
	if err != nil {
		return nil, err
	}
	h.over = over
	b := core.GetBatch()
	defer core.PutBatch(b)
	return h.refresh.Over(trackers, b, h.sk, 3*h.eps*h.over.value()/4)
}

// HashCandidates fills the candidates' hash columns when a decode left
// them out, so the merges that read h hash nothing
// (topk.Hash).
func (h *AlphaL1) HashCandidates() {
	b := core.GetBatch()
	defer core.PutBatch(b)
	topk.Hash(h.tracker, b, h.sk)
}

// Halvings returns the CSSS halvings h's table performed since it was
// built, decoded or copied (csss.Sketch.Halvings).
func (h *AlphaL1) Halvings() int64 { return h.sk.Halvings() }

// Reset puts h back, for a Fill, in the state New left it in, short of
// what Fill writes itself: the tracker is emptied and the merge counts
// cleared. The dimensions, the hash wiring and the scratch stay.
func (h *AlphaL1) Reset() {
	h.tracker.Reset()
	h.refresh = topk.Refresher[float64]{}
}

// MergeCounts reports the last MergeAll run into h's storage: how many
// distinct candidates its parts held together, and how many it kept —
// or the last HeavyHittersOver on h: how many distinct candidates
// reached the threshold, and how many it returned.
func (h *AlphaL1) MergeCounts() (union, kept int) { return h.refresh.MergeCounts() }

// CloneInto returns a deep copy safe to hand to another goroutine while
// h keeps ingesting, written into dst (nil: a new one), an earlier copy
// nobody else holds.
func (h *AlphaL1) CloneInto(dst *AlphaL1) *AlphaL1 {
	dst = core.OrNew(dst)
	*dst = AlphaL1{
		eps:     h.eps,
		sk:      h.sk.CloneInto(dst.sk),
		tracker: h.tracker.CloneInto(dst.tracker),
		n:       h.n,
		scale:   h.scale.cloneInto(&dst.scale),
		refresh: dst.refresh,
		over:    dst.over,
	}
	return dst
}

// SampleExponent returns the CSSS sketch's sampling exponent p.
func (h *AlphaL1) SampleExponent() int { return h.sk.SampleExponent() }

// SamplePosition returns the CSSS sketch's position t.
func (h *AlphaL1) SamplePosition() int64 { return h.sk.Position() }

// SampleExponentAt returns the exponent the CSSS schedule sets at t.
func (h *AlphaL1) SampleExponentAt(t int64) int { return h.sk.ExponentAt(t) }

// RaiseSampleExponent thins the CSSS sketch to rate 2^-p (a no-op when
// it already samples at or below that rate). The candidates stay, as
// they do across a scheduled halving.
func (h *AlphaL1) RaiseSampleExponent(p int) error {
	if !h.sk.ExponentFits(p) {
		return fmt.Errorf("heavy: sampling exponent %d out of range", p)
	}
	h.sk.RaiseExponent(p)
	return nil
}

// SpaceBits charges the CSSS sketch, the scale estimator, and the
// candidate tracker.
func (h *AlphaL1) SpaceBits() int64 {
	return h.sk.SpaceBits() + h.tracker.SpaceBits(h.n) + h.scale.spaceBits()
}

// CountSketchHH is the unbounded-deletion baseline: a full-width
// Count-Sketch (counters O(log n) bits) plus the same candidate tracking
// and decision rule.
type CountSketchHH struct {
	eps     float64
	sk      *sketch.CountSketch
	tracker *topk.Tracker
	n       uint64
	scale   l1Scale

	refresh topk.Refresher[int64]
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
		tracker: topk.New(l1TrackerCap(eps)),
		n:       n,
	}
	b.scale = newL1Scale(rng, mode)
	return b
}

// Update feeds one update.
func (b *CountSketchHH) Update(i uint64, delta int64) {
	b.sk.Update(i, delta)
	b.scale.update(i, delta)
	b.tracker.Offer(i, float64(b.sk.Query(i)))
}

// UpdateColumns feeds a pre-planned columnar batch (the baseline's
// dense Count-Sketch applies it row-major off one batch hash pass),
// with the same per-distinct-index tracker refresh as AlphaL1.
func (b *CountSketchHH) UpdateColumns(cb *core.Batch) {
	b.sk.UpdateColumns(cb)
	b.scale.updateColumns(cb)
	b.refresh.Offer(b.tracker, cb, b.sk)
}

// HeavyHitters applies the same 3 eps R / 4 rule as AlphaL1.
func (b *CountSketchHH) HeavyHitters() []uint64 {
	thr := 3 * b.eps * b.scale.value() / 4
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
	return b.sk.SpaceBits() + b.tracker.SpaceBits(b.n) + b.scale.spaceBits()
}
