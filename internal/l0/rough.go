package l0

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
)

// RoughF0 produces non-decreasing constant-factor overestimates of F0
// (the number of distinct identities seen so far) at every point of the
// stream, in O(log n) bits. It substitutes for the paper's RoughF0Est
// (Lemma 18, cited from [40]): each of `copies`
// repetitions tracks the Flajolet-Martin level bitmap of a pairwise hash,
// estimates 2^(highest set level), and the reported value is the running
// max of safety * median(copies) — running max forces monotonicity,
// the safety factor makes R_t >= F0_t hold with high probability.
//
// On an L0 alpha-property stream the output doubles as the paper's
// alphaStreamRoughL0Est (Corollary 2): L0_t <= R_t <= O(alpha) * L0.
//
// The median moves only when some copy's TOP level rises, which happens
// at most 61 times per copy in a stream's life. Both ingest paths rest
// on that: Update recomputes the median only then, and UpdateColumn
// OR-reduces whole key columns between such items.
type RoughF0 struct {
	hs      []*hash.KWise
	bitmaps []uint64
	best    int64
	safety  int64
	// stale marks a restored state whose best lags its own bitmaps (only
	// a crafted blob has one): the next update recomputes the median
	// whether or not a top level rises, as every update once did.
	stale bool
	// pending holds one OR-reduced level mask per copy between
	// UpdateColumn's scan and its commit.
	pending []uint64
	// block is UpdateColumn's next scan length — pacing, not state: it
	// changes how far ahead keys are hashed, never what they leave.
	block int
}

// zeroLevel is the level bit of a zero hash value: hash.LSB(0, 60) = 60.
// Field values stay below 2^61, so it is also the highest level bit.
const zeroLevel = 1 << 60

// NewRoughF0 builds the estimator with the given number of parallel
// copies (more copies tighten the constant; 16 is the library default).
func NewRoughF0(rng *rand.Rand, copies int) *RoughF0 {
	if copies < 1 {
		copies = 1
	}
	r := &RoughF0{
		hs:      make([]*hash.KWise, copies),
		bitmaps: make([]uint64, copies),
		safety:  4,
		pending: make([]uint64, copies),
	}
	for i := range r.hs {
		r.hs[i] = hash.NewPairwise(rng)
	}
	return r
}

// levelBit returns 1 << hash.LSB(v, 60) for a field value v.
func levelBit(v uint64) uint64 {
	v |= zeroLevel
	return v & -v
}

// Update feeds one identity (deltas are irrelevant to F0: any touch
// counts) and reports whether it raised the estimate.
func (r *RoughF0) Update(i uint64) bool {
	rose := r.stale
	for c, h := range r.hs {
		b := levelBit(h.Field(i))
		// A single bit exceeds the bitmap iff it lies above its top bit.
		rose = rose || b > r.bitmaps[c]
		r.bitmaps[c] |= b
	}
	if !rose {
		return false
	}
	r.stale = false
	if v := r.current(); v > r.best {
		r.best = v
		return true
	}
	return false
}

// UpdateColumn feeds keys in order and stops after the first one that
// raises the estimate. It returns that key's index — keys[:index+1] are
// consumed — or len(keys) when every key is consumed and the estimate
// stands. col is scratch of at least len(keys) entries, shared by all
// copies. State after the consumed prefix equals per-key Update.
//
// Keys are scanned in blocks: minScanBlock after a key lifted some
// copy's top level, four times longer after each block in which none
// did. A warm estimator therefore scans whole columns, and a cold one —
// whose lifts come a few keys apart — never hashes far past the next.
func (r *RoughF0) UpdateColumn(keys, col []uint64) int {
	done := 0
	for done < len(keys) {
		rest := keys[done:]
		block := max(r.block, minScanBlock)
		quiet := 0
		if !r.stale {
			rest = rest[:min(len(rest), block)]
			quiet = r.quietPrefix(rest, col)
		}
		done += quiet
		if quiet == len(rest) {
			r.block = min(4*block, columnChunk)
			continue
		}
		// This key lifts some copy's top level (or the state is stale):
		// the only kind of item that can move the median.
		r.block = minScanBlock
		if r.Update(rest[quiet]) {
			return done
		}
		done++
	}
	return done
}

// minScanBlock is UpdateColumn's scan length right after a top level
// rose.
const minScanBlock = 16

// columnChunk bounds one columnar run, and with it the scratch a batch
// of any length needs.
const columnChunk = 4096

// ZeroFreeRuns hands apply b's updates in order as batches free of zero
// deltas, each at most columnChunk long: a zero-delta update costs the
// windowed structures nothing, not even a rough-estimate touch. A batch
// that qualifies goes through as it is, with the plan it carries; any
// other is compacted FIRST and planned piece by piece (a plan made
// before would rank a key by an occurrence that is not there).
func ZeroFreeRuns(b *core.Batch, apply func(*core.Batch)) {
	if b.Len() <= columnChunk && !slices.Contains(b.Delta, 0) {
		apply(b)
		return
	}
	piece := core.GetBatch()
	defer core.PutBatch(piece)
	for j, d := range b.Delta {
		if d != 0 {
			piece.Append(b.Idx[j], d)
		}
		if n := piece.Len(); n == columnChunk || n > 0 && j == len(b.Delta)-1 {
			apply(piece)
			piece.Reset()
		}
	}
}

// quietPrefix commits the longest prefix of keys that raises no copy's
// top level — so cannot move the estimate — and returns its length: one
// FieldBatch and one OR-reduction per copy, no per-key branch.
func (r *RoughF0) quietPrefix(keys, col []uint64) int {
	limit := len(keys)
	for shrunk := true; shrunk; {
		shrunk = false
		for c, h := range r.hs {
			h.FieldBatch(keys[:limit], col)
			var m uint64
			for _, v := range col[:limit] {
				m |= levelBit(v)
			}
			if bits.Len64(m) <= bits.Len64(r.bitmaps[c]) {
				r.pending[c] = m
				continue
			}
			// Copy c's top rises inside keys[:limit]: cut before it.
			// Masks already taken cover a longer prefix, so one more
			// pass retakes them over the final one (no copy rises
			// inside it, so that pass is the last).
			for j, v := range col[:limit] {
				if levelBit(v) > r.bitmaps[c] {
					limit = j
					break
				}
			}
			shrunk = true
		}
	}
	for c, m := range r.pending {
		r.bitmaps[c] |= m
	}
	return limit
}

// current computes safety * 2^(median of per-copy top levels).
func (r *RoughF0) current() int64 {
	// Counting select over the 62 possible tops (-1 for an empty bitmap,
	// then levels 0..60): the median is the element of rank len/2.
	var count [62]int
	for _, bm := range r.bitmaps {
		count[bits.Len64(bm)]++
	}
	med, seen := -1, 0
	for t, n := range count {
		seen += n
		if seen > len(r.bitmaps)/2 {
			med = t - 1
			break
		}
	}
	if med < 0 {
		return 0
	}
	if med > 50 {
		med = 50
	}
	return r.safety << uint(med)
}

// Estimate returns the running-max estimate R_t (non-decreasing; 0 only
// before any update).
func (r *RoughF0) Estimate() int64 { return r.best }

// Merge folds another RoughF0 built from the same seed into this one:
// level bitmaps OR together (the union stream touched a level iff some
// shard did), and the running max re-derives from the merged bitmaps.
func (r *RoughF0) Merge(other *RoughF0) error {
	if other == nil {
		return fmt.Errorf("l0: merge with nil RoughF0")
	}
	if len(r.hs) != len(other.hs) || r.safety != other.safety {
		return fmt.Errorf("l0: merging RoughF0 with different shapes")
	}
	for i := range r.hs {
		if !r.hs[i].Equal(other.hs[i]) {
			return fmt.Errorf("l0: merging RoughF0 with different hash functions (same seed required)")
		}
	}
	for c := range r.bitmaps {
		r.bitmaps[c] |= other.bitmaps[c]
	}
	if other.best > r.best {
		r.best = other.best
	}
	if v := r.current(); v > r.best {
		r.best = v
	}
	r.stale = false
	return nil
}

// CloneInto returns a deep copy sharing the (immutable) hash functions,
// written into dst (nil: a new one), an earlier copy nobody else holds.
func (r *RoughF0) CloneInto(dst *RoughF0) *RoughF0 {
	if dst == nil || len(dst.pending) != len(r.bitmaps) {
		dst = &RoughF0{pending: make([]uint64, len(r.bitmaps))}
	}
	*dst = RoughF0{
		hs:      r.hs,
		bitmaps: append(dst.bitmaps[:0], r.bitmaps...),
		best:    r.best,
		safety:  r.safety,
		stale:   r.stale,
		pending: dst.pending,
		block:   r.block,
	}
	return dst
}

// SpaceBits charges the bitmaps and hash seeds: O(copies * log n).
func (r *RoughF0) SpaceBits() int64 {
	var seeds int64
	for _, h := range r.hs {
		seeds += h.SpaceBits()
	}
	return int64(len(r.bitmaps))*61 + seeds + int64(nt.BitsFor(uint64(r.best)))
}

// RoughL0 is the constant-factor end-of-stream L0 estimator: Lemma 14
// ([40]'s RoughL0Estimator) when windowed == false, and the paper's
// alphaStreamConstL0Est (Lemma 20) when windowed == true — then only the
// levels within `window` of log2 of the running rough-F0 estimate R_t
// are maintained, shrinking the level set from log n to
// O(log(alpha/eps)). The windowed variant owns no R_t: its owner hands
// every call the estimate the update is applied under, the one the
// owner's own window follows (the Estimator's rows: Figure 7 and Lemma
// 20 cut at the same R_t events).
type RoughL0 struct {
	maxLevel int
	levels   Window[ExactSmall] // the maintained levels, indexed by level
	h        *hash.KWise        // level hash h: [n] -> [n], level = lsb(h(i))
	// levelSeed derives each level's ExactSmall wiring as a pure
	// function of the level index, so instances built from the same
	// seed agree on every level's hash and prime no matter WHEN the
	// sliding window instantiated it — the property Merge relies on.
	levelSeed int64
	windowed  bool
	window    int
	// levelFloor notes the paper's L_t = max(estimate, 8 log n / log log
	// n) lower clamp.
	levelFloor int64
}

const (
	roughC   = 132 // Lemma 21's exact-count bound
	roughEta = 8   // per-level threshold "declares L0(S_j) > 8"
)

// NewRoughL0 builds the unbounded-deletion baseline: all log(n)+1 levels
// live for the whole stream.
func NewRoughL0(rng *rand.Rand, n uint64) *RoughL0 {
	return newRoughL0(rng, n, false, 0)
}

// NewRoughL0Windowed builds Lemma 20's variant for alpha-property
// streams: levels within +-window of log2 of the owner's rough F0
// estimate are maintained; window should be ~ 2*log2(4*alpha/eps).
func NewRoughL0Windowed(rng *rand.Rand, n uint64, window int) *RoughL0 {
	return newRoughL0(rng, n, true, window)
}

// newRoughL0 builds the window at R_t = 0, where its owner's fresh
// rough estimator stands.
func newRoughL0(rng *rand.Rand, n uint64, windowed bool, window int) *RoughL0 {
	r := &RoughL0{
		maxLevel:  nt.Log2Ceil(n),
		h:         hash.NewPairwise(rng),
		levelSeed: rng.Int63(),
		windowed:  windowed,
		window:    window,
	}
	r.levels = NewWindow[ExactSmall](r.maxLevel, windowed, 0, nil)
	if windowed {
		r.levelFloor = 8
	}
	r.levels.syncAt(0, r.span, r.newLevel)
	return r
}

// span returns the level interval Lemma 20 maintains at rough estimate
// est: log2(max(est, floor)) +- window.
func (r *RoughL0) span(est int64) (int, int) {
	center := nt.Log2Floor(uint64(max(est, r.levelFloor)))
	return center - r.window, center + r.window
}

// newLevel builds level j's exact counter from a construction rng
// derived from the shared per-instance seed, so the level's ExactSmall
// wiring is identical in every instance built from the same seed.
func (r *RoughL0) newLevel(j int) *ExactSmall {
	rng := rand.New(rand.NewSource(r.levelSeed ^ (int64(j)+1)*0x5851F42D4C957F2D))
	return NewExactSmall(rng, roughC)
}

// Update feeds one stream update under the window of rt, the owner's
// rough estimate once it has seen i (the baseline is handed 0): sync,
// then the item.
func (r *RoughL0) Update(rt int64, i uint64, delta int64) {
	r.levels.syncAt(rt, r.span, r.newLevel)
	if b := r.levels.At(min(hash.LSB(r.h.Field(i), r.maxLevel), r.maxLevel)); b != nil {
		b.Update(i, delta)
	}
}

// levelColumn writes each key's level into lvl: the level hash
// batch-evaluated once per distinct key of a planned batch.
func (r *RoughL0) levelColumn(keys, lvl []uint64) {
	r.h.FieldBatch(keys, lvl)
	for o, hv := range lvl[:len(keys)] {
		lvl[o] = uint64(min(hash.LSB(hv, r.maxLevel), r.maxLevel))
	}
}

// applyRun is Update for the run b.Delta[lo:hi] of a planned batch —
// keys of ordinal below seen, their levels in lvl — over which the
// owner's R_t stands at rt: sync, then the updates through their
// ordinals under one fixed live set, a key's bucket hashed once per run
// by its level's own function, not at all once that level has latched
// LARGE. bucket is scratch of at least seen entries.
func (r *RoughL0) applyRun(rt int64, b *core.Batch, lo, hi, seen int, lvl, bucket []uint64) {
	r.levels.syncAt(rt, r.span, r.newLevel)
	keys, slot := core.Distinct(b)
	for o, k := range keys[:seen] {
		if lv := r.levels.At(int(lvl[o])); lv != nil && !lv.overflow {
			bucket[o] = lv.hash.Range(k, lv.buckets)
		}
	}
	for j := lo; j < hi; j++ {
		o := slot[j]
		if lv := r.levels.At(int(lvl[o])); lv != nil && !lv.overflow && b.Delta[j] != 0 {
			lv.updateBucket(bucket[o], b.Delta[j])
		}
	}
}

// Estimate returns R in [L0, c*L0] with constant probability (c = 110
// for the baseline; the windowed variant matches on alpha-property
// streams). Following [40]: find the largest maintained level j whose
// exact counter reports more than 8 live items and return
// (20000/99) * 2^j; with no such level return 50.
func (r *RoughL0) Estimate() int64 {
	best := -1
	for j, b := range r.levels.Each {
		if b.CountSaturating() > roughEta {
			best = j
		}
	}
	if best < 0 {
		return 50
	}
	return (20000 * (int64(1) << uint(best))) / 99
}

// LiveLevels reports how many level structures are currently maintained
// (log n for the baseline, O(window) for Lemma 20).
func (r *RoughL0) LiveLevels() int { return r.levels.Len() }

// Merge folds another RoughL0 built from the same seed into this one:
// levels maintained by both add their exact counters, levels maintained
// by only one survive, and the window re-syncs at rt, the owner's
// merged estimate.
func (r *RoughL0) Merge(other *RoughL0, rt int64) error {
	if other == nil {
		return fmt.Errorf("l0: merge with nil RoughL0")
	}
	if r.maxLevel != other.maxLevel || r.windowed != other.windowed ||
		r.window != other.window || r.levelSeed != other.levelSeed || !r.h.Equal(other.h) {
		return fmt.Errorf("l0: merging RoughL0 with different wiring (same seed/params required)")
	}
	if err := r.levels.Merge(&other.levels, (*ExactSmall).Merge, (*ExactSmall).CloneInto); err != nil {
		return err
	}
	r.levels.syncAt(rt, r.span, r.newLevel)
	return nil
}

// CloneInto returns a deep copy sharing the (immutable) hash function,
// written into dst (nil: a new one), an earlier copy nobody else holds.
func (r *RoughL0) CloneInto(dst *RoughL0) *RoughL0 {
	dst = core.OrNew(dst)
	c := *r
	c.levels = r.levels.Clone(&dst.levels, (*ExactSmall).CloneInto)
	*dst = c
	return dst
}

// SpaceBits sums the live level structures and the level hash; the R_t
// they follow is the owner's to charge.
func (r *RoughL0) SpaceBits() int64 {
	total := r.h.SpaceBits()
	for _, b := range r.levels.Each {
		total += b.SpaceBits()
	}
	return total
}
