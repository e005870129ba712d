package heavy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/topk"
)

// AlphaL2 implements the paper's Appendix A sketch of L2 heavy hitters
// for alpha-property streams: if |f_i| >= eps ||f||_2 then, on the
// insertion-only stream I + D (every update taken with positive sign),
// item i satisfies I_i + D_i >= |f_i| >= (eps/alpha) ||I + D||_2 — so an
// insertion-only (eps/alpha) L2 heavy hitters pass over |updates| yields
// a candidate set S of size O((alpha/eps)^2), which a second
// Count-Sketch over f verifies at threshold (3 eps / 4) ||f||_2.
//
// The appendix invokes BPTree for the insertion-only pass; we substitute
// a Count-Sketch over I+D, preserving the
// (alpha/eps)^2 shape the appendix establishes.
type AlphaL2 struct {
	eps   float64
	alpha float64
	insCS *sketch.CountSketch // over I + D (all-positive)
	verCS *sketch.CountSketch // over f
	trk   *topk.Tracker
	n     uint64

	refresh topk.Refresher[int64]
	qInt    []int64 // scratch for QueryColumns' verifier gather
}

// NewAlphaL2 builds the Appendix A structure. Column counts follow the
// appendix: the insertion pass at sensitivity eps/alpha needs
// O((alpha/eps)^2) columns; the verifier needs O(1/eps^2).
func NewAlphaL2(rng *rand.Rand, n uint64, eps, alpha float64) *AlphaL2 {
	insCols, verCols := l2Cols(eps, alpha)
	return &AlphaL2{
		eps:   eps,
		alpha: max(alpha, 1),
		insCS: sketch.NewCountSketch(rng, 5, insCols),
		verCS: sketch.NewCountSketch(rng, 7, verCols),
		trk:   topk.New(l2TrackerCap(eps, max(alpha, 1))),
		n:     n,
	}
}

// l2Cols returns the insertion-pass and verifier column counts.
func l2Cols(eps, alpha float64) (ins, ver uint64) {
	if eps <= 0 || eps >= 1 {
		panic("heavy: eps must be in (0,1)")
	}
	// 2^40 columns is beyond any memory; the clamp keeps the lengths
	// below in range for any Config.
	cols := func(v float64) uint64 { return uint64(max(16, min(math.Ceil(v), 1<<40))) }
	alpha = max(alpha, 1)
	return cols(4 * (alpha / eps) * (alpha / eps)), cols(4 / (eps * eps))
}

// L2StateLen is the least encoded length of an AlphaL2 built with (eps,
// alpha): both Count-Sketches one byte a counter and no candidates (see
// AlphaL1Params.StateLen).
func L2StateLen(eps, alpha float64) int {
	ins, ver := l2Cols(eps, alpha)
	return sketch.StateLen(5*int(ins)) + sketch.StateLen(7*int(ver)) + topk.MinLen
}

// l2TrackerCap is the candidate capacity of the insertion pass: at most
// (alpha/eps)^2 items are (eps/alpha)-heavy in L2, kept with a factor 2
// of slack.
func l2TrackerCap(eps, alpha float64) int { return 2 * int(math.Ceil((alpha/eps)*(alpha/eps))) }

// Update feeds one stream update.
func (h *AlphaL2) Update(i uint64, delta int64) {
	mag := delta
	if mag < 0 {
		mag = -mag
	}
	h.insCS.Update(i, mag) // the insertion-only stream I + D
	h.verCS.Update(i, delta)
	h.trk.Offer(i, float64(h.insCS.Query(i)))
}

// UpdateColumns feeds a pre-planned columnar batch: the verifier
// sketch consumes the columns as-is; the insertion-pass sketch
// consumes a second pooled batch holding the same index column with
// magnitude deltas (the I + D stream); the candidate tracker refreshes
// once per distinct index against the insertion-pass sketch.
func (h *AlphaL2) UpdateColumns(b *core.Batch) {
	ins := core.GetBatch()
	for j, i := range b.Idx {
		mag := b.Delta[j]
		if mag < 0 {
			mag = -mag
		}
		ins.Append(i, mag)
	}
	h.insCS.UpdateColumns(ins)
	core.PutBatch(ins)
	h.verCS.UpdateColumns(b)
	h.refresh.Offer(h.trk, b, h.insCS)
}

// HeavyHitters returns the verified eps L2 heavy hitters of f. The
// candidate set re-estimates through ONE columnar QueryColumns sweep
// over the verifier sketch instead of one Query per candidate;
// estimates, and hence the returned set, are bit-identical either way.
func (h *AlphaL2) HeavyHitters() []uint64 {
	// ||f||_2 estimate from the verifier's rows (Lemma 4).
	l2 := h.verCS.L2Estimate()
	thr := 3 * h.eps * l2 / 4
	cand := h.trk.Candidates()
	if len(cand) == 0 {
		return nil
	}
	ints := core.Grow(&h.qInt, len(cand))
	b := core.GetBatch()
	h.verCS.QueryColumns(b, cand, ints)
	core.PutBatch(b)
	var out []uint64
	for j, i := range cand {
		if math.Abs(float64(ints[j])) >= thr {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Query returns the verification Count-Sketch's point estimate of f_i
// — the same value the HeavyHitters decision rule thresholds.
func (h *AlphaL2) Query(i uint64) float64 { return float64(h.verCS.Query(i)) }

// QueryColumns fills est[j] with Query(keys[j]) in one batch hash pass
// over the verifier sketch (bit-identical to Query; see
// sketch.CountSketch.QueryColumns).
func (h *AlphaL2) QueryColumns(b *core.Batch, keys []uint64, est []float64) {
	n := len(keys)
	if n == 0 {
		return
	}
	ints := core.Grow(&h.qInt, n)
	h.verCS.QueryColumns(b, keys, ints)
	for j, v := range ints {
		est[j] = float64(v)
	}
}

// Merge folds another AlphaL2 built from the same seed into this one:
// MergeAll with one part, in place. other is only read.
func (h *AlphaL2) Merge(other *AlphaL2) error {
	_, err := h.MergeAll(h, []*AlphaL2{other})
	return err
}

// MergeAll returns h merged with others, built from the same seed,
// written into dst (nil, h itself — in place — or an earlier result
// nobody else holds; never one of others): both Count-Sketches are
// summed in one pass each (sketch.CountSketch.Add) and the candidates
// of every part are re-ranked ONCE
// against the merged insertion-pass sketch (topk.Refresher.MergeAll).
// With no others, dst holds h's sketches and h's candidates re-ranked
// against them. The parts are only read.
func (h *AlphaL2) MergeAll(dst *AlphaL2, others []*AlphaL2) (*AlphaL2, error) {
	ins, ver := make([]*sketch.CountSketch, len(others)), make([]*sketch.CountSketch, len(others))
	trackers := make([]*topk.Tracker, 1+len(others))
	trackers[0] = h.trk
	for j, o := range others {
		if o == nil {
			return nil, fmt.Errorf("heavy: merge with nil AlphaL2")
		}
		if h.eps != o.eps || h.alpha != o.alpha || h.n != o.n {
			return nil, fmt.Errorf("heavy: merging AlphaL2 with different params (same seed/params required)")
		}
		ins[j], ver[j], trackers[j+1] = o.insCS, o.verCS, o.trk
	}
	dst = core.OrNew(dst)
	insCS, err := h.insCS.Add(dst.insCS, ins)
	if err != nil {
		return nil, err
	}
	verCS, err := h.verCS.Add(dst.verCS, ver)
	if err != nil {
		return nil, err
	}
	b := core.GetBatch()
	defer core.PutBatch(b)
	trk, err := dst.refresh.MergeAll(dst.trk, trackers, b, insCS)
	if err != nil {
		return nil, err
	}
	*dst = AlphaL2{eps: h.eps, alpha: h.alpha, insCS: insCS, verCS: verCS, trk: trk, n: h.n, refresh: dst.refresh, qInt: dst.qInt}
	return dst, nil
}

// CloneInto returns a deep copy (snapshot) written into dst (nil: a new
// one), an earlier copy nobody else holds.
func (h *AlphaL2) CloneInto(dst *AlphaL2) *AlphaL2 {
	dst = core.OrNew(dst)
	*dst = AlphaL2{
		eps:     h.eps,
		alpha:   h.alpha,
		insCS:   h.insCS.CloneInto(dst.insCS),
		verCS:   h.verCS.CloneInto(dst.verCS),
		trk:     h.trk.CloneInto(dst.trk),
		n:       h.n,
		refresh: dst.refresh,
		qInt:    dst.qInt,
	}
	return dst
}

// SpaceBits charges both sketches and the tracker — the appendix's
// O(alpha^2 ...) shape comes from the insertion pass and tracker.
func (h *AlphaL2) SpaceBits() int64 {
	return h.insCS.SpaceBits() + h.verCS.SpaceBits() + h.trk.SpaceBits(h.n)
}
