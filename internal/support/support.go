// Package support implements support sampling (the paper's Section 7):
// return at least min(k, ||f||_0) coordinates of the support of a strict
// turnstile stream.
//
// Sampler follows Figure 8 (alpha-SupportSampler): identities are
// level-sampled by a pairwise hash (level j keeps items with h(i) <
// 2^j, an expected 2^j/n fraction), each live level feeds an exact
// s-sparse recovery sketch (package sparse, the paper's Lemma 22), and —
// this is the alpha-property saving — only the levels within a window of
// log2(n*s / (3*R_t)) are maintained, where R_t is the running rough L0
// estimate (Corollary 2). A level created at time t_j sketches the
// suffix frequency vector f^{t_j:m}; on a strict turnstile stream every
// strictly positive suffix coordinate belongs to the final support,
// which is why decoding suffix vectors is sound (Theorem 11).
//
// The unbounded-deletion baseline (windowed = false) maintains all
// log(n) levels for the whole stream — the O(k log^2 n) layout Figure 1
// row 8 compares against.
package support

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/l0"
	"repro/internal/nt"
	"repro/internal/sparse"
)

// Params configures a Sampler.
type Params struct {
	// N is the universe size (power of two recommended).
	N uint64
	// K is the number of support coordinates the caller wants.
	K int
	// SparsityFactor scales the per-level sketch capacity s = factor*K
	// (the paper's s = 205k; 8 is the laptop-scaled default used when 0).
	SparsityFactor int
	// Windowed selects Figure 8 (true) or the keep-all-levels baseline
	// (false).
	Windowed bool
	// Window is the one-sided level window around log2(ns/3R_t);
	// nominally 2*log2(alpha/eps) with eps = 1/48 (Figure 8 step 2).
	// RecommendedWindow supplies a padded default.
	Window int
}

// RecommendedWindow returns a level window in the Figure 8 form
// log2(48*alpha) plus constant padding for the looser factors of our
// rough-estimator substitution. (The paper writes 2*log2(alpha/eps)
// with eps = 1/48; its constants are generous — one log suffices for
// the overshoot range [L0, O(alpha) L0] the estimate can occupy.)
func RecommendedWindow(alpha float64) int {
	if alpha < 1 {
		alpha = 1
	}
	return int(math.Ceil(math.Log2(48*alpha))) + 3
}

// Sampler is the support sampler.
type Sampler struct {
	params   Params
	s        int // per-level sparse recovery capacity
	maxLevel int
	h        *hash.KWise
	rough    *l0.RoughF0
	// levels holds the maintained level sketches, indexed by level; every
	// sketch shares proto's hash functions.
	levels l0.Window[sparse.Recovery]
	proto  *sparse.Recovery // hash-sharing prototype for level sketches
	decode sparse.Scratch   // read scratch: every level decodes into it, one at a time
}

// capacity is the per-level sparse recovery capacity s = factor*K.
func (params Params) capacity() int {
	factor := params.SparsityFactor
	if factor <= 0 {
		factor = 8
	}
	return factor * params.K
}

// roughCopies is the copy count of the rough-F0 tracker.
const roughCopies = 16

// alwaysOn is the number of top levels Figure 8 keeps at every estimate:
// they cover streams whose L0 stays below the rough estimator's reliable
// range.
const alwaysOn = 2

// NewSampler builds a support sampler.
func NewSampler(rng *rand.Rand, params Params) *Sampler {
	if params.K < 1 || params.N < 2 {
		panic(fmt.Sprintf("support: invalid params %+v", params))
	}
	sp := &Sampler{
		params:   params,
		s:        params.capacity(),
		maxLevel: nt.Log2Ceil(params.N),
		h:        hash.NewPairwise(rng),
		rough:    l0.NewRoughF0(rng, roughCopies),
	}
	sp.proto = sparse.NewRecovery(rng, sp.s, params.N)
	sp.levels = l0.NewWindow[sparse.Recovery](sp.maxLevel, params.Windowed, alwaysOn, &levelStats)
	sp.levels.Sync(sp.rough, sp.span, sp.newLevel)
	return sp
}

// span returns the level interval Figure 8 maintains at rough estimate r
// (the always-on top levels come on top of it): log2(n*s / (3*R_t)) +-
// Window.
func (sp *Sampler) span(r int64) (int, int) {
	ns := float64(sp.params.N) * float64(sp.s)
	center := int(math.Floor(math.Log2(ns / (3 * float64(max(r, 1))))))
	return center - sp.params.Window, center + sp.params.Window
}

func (sp *Sampler) newLevel(int) *sparse.Recovery { return sp.proto.Sibling() }

// minLevel returns the lowest level that samples an item with level
// hash hv: i belongs to I_j iff hv < 2^j, i.e. j >= bitlen(hv).
func minLevel(hv uint64) int { return bits.Len64(hv) }

// Update feeds one stream update: rough estimate, then the level window
// it produces, then the item.
func (sp *Sampler) Update(i uint64, delta int64) {
	if delta == 0 {
		return
	}
	sp.levels.Observe(sp.rough, i, sp.span, sp.newLevel)
	for _, lv := range sp.levels.From(minLevel(sp.h.Range(i, sp.params.N))) {
		if lv != nil {
			lv.Update(i, delta)
		}
	}
}

// UpdateColumns consumes a columnar batch: plan → hash the distinct
// keys → apply through the ordinals, cut at the window events
// (l0.Window.CutPlanned). Every level sketch shares the prototype's
// hash functions, so the level hash, the fingerprint and the three
// bucket hashes are batch-evaluated ONCE per distinct key, whichever
// updates carry it and whichever levels they reach; the updates between
// cuts apply in order (a sketch's count peak depends on it) to every
// live level at or above their key's minimum. Nothing here draws
// randomness, so state is bit-identical to per-item Update.
func (sp *Sampler) UpdateColumns(b *core.Batch) { l0.ZeroFreeRuns(b, sp.updateRun) }

// updateRun applies a zero-free batch of at most a chunk of updates.
func (sp *Sampler) updateRun(b *core.Batch) {
	keys, slot := core.Distinct(b)
	d := len(keys)
	col := b.Col64(3 * d)
	from, fp, scratch := col[:d], col[d:2*d], col[2*d:]
	cells := b.Cols32(3 * d)
	sp.proto.HashColumn(keys, scratch, fp, cells)
	sp.h.RangeBatch(keys, sp.params.N, from)
	for o, hv := range from {
		from[o] = uint64(minLevel(hv))
	}
	top := sp.maxLevel + 1 // no level above it: the walk up stops there, not at slot 64
	sp.levels.CutPlanned(sp.rough, b, sp.span, sp.newLevel, func(lo, hi, _ int) {
		for j := lo; j < hi; j++ {
			o := slot[j]
			e := sparse.MakeEntry(b.Idx[j], b.Delta[j], fp[o], cells[3*o:])
			for _, lv := range sp.levels.From(0)[from[o]:top] {
				if lv != nil {
					lv.Apply(&e)
				}
			}
		}
	})
}

// Recover returns distinct support coordinates — every one strictly
// positive in some decoded suffix vector, hence in the true support of a
// strict turnstile stream. On success the result has at least
// min(K, ||f||_0) entries with the probability of Theorem 11.
func (sp *Sampler) Recover() []uint64 {
	out := []uint64{}
	for _, lv := range sp.levels.Each {
		vec, err := lv.DecodeInto(&sp.decode)
		if err != nil {
			continue // DENSE level; other levels may still decode
		}
		for _, p := range vec {
			if p.Count > 0 {
				out = append(out, p.Key)
			}
		}
	}
	// The levels are nested samples, so most keys arrive more than once.
	slices.Sort(out)
	return slices.Compact(out)
}

// Contains reports whether i belongs to the sampler's recovered
// support — the membership probe behind the public Prober capability,
// answered without materializing the whole support set. Only the
// levels that actually sample i (h(i) < 2^j) are decoded, sparsest
// first with an early exit, and the answer equals i's membership in
// Recover()'s union: a level below i's minimum never received i, so
// skipping it cannot change the verdict.
func (sp *Sampler) Contains(i uint64) bool {
	for _, lv := range sp.levels.From(minLevel(sp.h.Range(i, sp.params.N))) {
		if lv == nil {
			continue
		}
		vec, err := lv.DecodeInto(&sp.decode)
		if err != nil {
			continue // DENSE level; sparser evidence may still exist
		}
		if sparse.CountOf(vec, i) > 0 {
			return true
		}
	}
	return false
}

// ProbeBatch fills out[j] with Contains(keys[j]) for every key — the
// batched membership probe. The level hash runs over the whole key
// column in ONE batch evaluation (into b's column scratch), and each
// live level decodes at most ONCE per batch instead of once per probe
// — the decode is the probe's dominant cost, so a batch of probes
// against the same sampler state pays it per level, not per key.
// Verdicts are identical to per-key Contains calls: a key consults
// exactly the levels at or above its minimum sampling level, and the
// union over those levels' decoded positives is order-independent.
// out must hold len(keys) entries.
func (sp *Sampler) ProbeBatch(b *core.Batch, keys []uint64, out []bool) {
	n := len(keys)
	if n == 0 {
		return
	}
	if len(out) < n {
		panic(fmt.Sprintf("support: ProbeBatch output holds %d entries, need %d", len(out), n))
	}
	// One batch evaluation assigns every key its level hash; the column
	// then converts in place to each key's minimum sampling level
	// (levels below it never received the key).
	minLv := b.Col64(n)
	sp.h.RangeBatch(keys, sp.params.N, minLv)
	for t, hv := range minLv {
		minLv[t] = uint64(minLevel(hv))
		out[t] = false
	}
	for j, lv := range sp.levels.Each {
		vec, err := lv.DecodeInto(&sp.decode)
		if err != nil {
			continue // DENSE level; sparser evidence may still exist
		}
		for t, i := range keys {
			if !out[t] && uint64(j) >= minLv[t] && sparse.CountOf(vec, i) > 0 {
				out[t] = true
			}
		}
	}
}

// Merge folds another support sampler built from the same seed into
// this one: the rough-F0 tracker merges, levels maintained by both add
// their (linear) sparse-recovery sketches cell-wise, levels maintained
// by only one survive, and the window re-syncs at the merged estimate.
// Each merged level sketch is the sum of two suffix frequency vectors
// over disjoint time windows, so every strictly positive decoded
// coordinate still belongs to the final support of a strict turnstile
// stream — the property Recover relies on.
func (sp *Sampler) Merge(other *Sampler) error {
	if other == nil {
		return fmt.Errorf("support: merge with nil Sampler")
	}
	if sp.params != other.params {
		return fmt.Errorf("support: merging Samplers with different params (same seed/params required)")
	}
	if err := sp.rough.Merge(other.rough); err != nil {
		return err
	}
	if err := sp.levels.Merge(&other.levels, (*sparse.Recovery).Merge, (*sparse.Recovery).CloneInto); err != nil {
		return err
	}
	sp.levels.Sync(sp.rough, sp.span, sp.newLevel)
	return nil
}

// CloneInto returns a deep copy sharing the (immutable) hash functions
// and sketch prototype, written into dst (nil: a new one), an earlier
// copy nobody else holds.
func (sp *Sampler) CloneInto(dst *Sampler) *Sampler {
	dst = core.OrNew(dst)
	c := *sp
	c.rough = sp.rough.CloneInto(dst.rough)
	c.decode = dst.decode
	c.levels = sp.levels.Clone(&dst.levels, (*sparse.Recovery).CloneInto)
	*dst = c
	return dst
}

// LiveLevels reports the number of maintained level sketches.
func (sp *Sampler) LiveLevels() int { return sp.levels.Len() }

// SpaceBits sums the live level sketches (at the peak live count), the
// level hash, and the rough estimator.
func (sp *Sampler) SpaceBits() int64 {
	var perLevel int64
	for _, lv := range sp.levels.Each {
		perLevel = max(perLevel, lv.SpaceBits())
	}
	return int64(sp.levels.Peak())*perLevel + sp.h.SpaceBits() + sp.rough.SpaceBits()
}
