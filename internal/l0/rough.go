package l0

import (
	"fmt"
	"math/rand"

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
type RoughF0 struct {
	hs      []*hash.KWise
	bitmaps []uint64
	best    int64
	safety  int64
}

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
	}
	for i := range r.hs {
		r.hs[i] = hash.NewPairwise(rng)
	}
	return r
}

// Update feeds one identity (deltas are irrelevant to F0: any touch
// counts).
func (r *RoughF0) Update(i uint64) {
	for c, h := range r.hs {
		lvl := hash.LSB(h.Field(i), 60)
		r.bitmaps[c] |= 1 << uint(lvl)
	}
	if v := r.current(); v > r.best {
		r.best = v
	}
}

// current computes safety * 2^(median of per-copy max levels).
func (r *RoughF0) current() int64 {
	levels := make([]int, len(r.bitmaps))
	for c, bm := range r.bitmaps {
		levels[c] = 63 - leadingZeros(bm)
	}
	med := medianInt(levels)
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
	return nil
}

// Clone returns a deep copy sharing the (immutable) hash functions.
func (r *RoughF0) Clone() *RoughF0 {
	return &RoughF0{
		hs:      r.hs,
		bitmaps: append([]uint64(nil), r.bitmaps...),
		best:    r.best,
		safety:  r.safety,
	}
}

// SpaceBits charges the bitmaps and hash seeds: O(copies * log n).
func (r *RoughF0) SpaceBits() int64 {
	var seeds int64
	for _, h := range r.hs {
		seeds += h.SpaceBits()
	}
	return int64(len(r.bitmaps))*61 + seeds + int64(nt.BitsFor(uint64(r.best)))
}

func leadingZeros(x uint64) int {
	n := 0
	for b := 32; b > 0; b /= 2 {
		if x>>(64-uint(b)) == 0 {
			n += b
			x <<= uint(b)
		}
	}
	if x == 0 {
		return 64
	}
	return n
}

func medianInt(xs []int) int {
	s := make([]int, len(xs))
	copy(s, xs)
	for i := 1; i < len(s); i++ { // insertion sort: tiny slices
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s) == 0 {
		return -1
	}
	return s[len(s)/2]
}

// RoughL0 is the constant-factor end-of-stream L0 estimator: Lemma 14
// ([40]'s RoughL0Estimator) when windowed == false, and the paper's
// alphaStreamConstL0Est (Lemma 20) when windowed == true — then only the
// levels within `window` of log2 of the running rough-F0 estimate are
// maintained, shrinking the level set from log n to O(log(alpha/eps)).
type RoughL0 struct {
	maxLevel int
	levels   map[int]*ExactSmall
	h        *hash.KWise // level hash h: [n] -> [n], level = lsb(h(i))
	// levelSeed derives each level's ExactSmall wiring as a pure
	// function of the level index, so instances built from the same
	// seed agree on every level's hash and prime no matter WHEN the
	// sliding window instantiated it — the property Merge relies on.
	levelSeed int64
	windowed  bool
	window    int
	rough     *RoughF0
	// levelFloor notes the paper's L_t = max(estimate, 8 log n / log log
	// n) lower clamp.
	levelFloor int64
	created    map[int]bool // levels ever instantiated (diagnostics)
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
// streams: levels within +-window of log2(rough F0 estimate) are
// maintained; window should be ~ 2*log2(4*alpha/eps).
func NewRoughL0Windowed(rng *rand.Rand, n uint64, window int) *RoughL0 {
	return newRoughL0(rng, n, true, window)
}

func newRoughL0(rng *rand.Rand, n uint64, windowed bool, window int) *RoughL0 {
	r := &RoughL0{
		maxLevel:  nt.Log2Ceil(n),
		levels:    make(map[int]*ExactSmall),
		h:         hash.NewPairwise(rng),
		levelSeed: rng.Int63(),
		windowed:  windowed,
		window:    window,
		created:   make(map[int]bool),
	}
	if windowed {
		r.rough = NewRoughF0(rng, 16)
		r.levelFloor = 8
	}
	r.syncLevels()
	return r
}

// liveRange returns the currently maintained level interval.
func (r *RoughL0) liveRange() (int, int) {
	if !r.windowed {
		return 0, r.maxLevel
	}
	est := r.levelFloor
	if r.rough != nil {
		if e := r.rough.Estimate(); e > est {
			est = e
		}
	}
	center := nt.Log2Floor(uint64(est))
	lo := center - r.window
	hi := center + r.window
	if lo < 0 {
		lo = 0
	}
	if hi > r.maxLevel {
		hi = r.maxLevel
	}
	return lo, hi
}

func (r *RoughL0) syncLevels() {
	lo, hi := r.liveRange()
	for j := range r.levels {
		if j < lo || j > hi {
			delete(r.levels, j)
		}
	}
	for j := lo; j <= hi; j++ {
		if _, ok := r.levels[j]; !ok {
			r.levels[j] = NewExactSmall(r.levelRNG(j), roughC)
			r.created[j] = true
		}
	}
}

// levelRNG derives level j's private construction rng from the shared
// per-instance seed, so the level's ExactSmall wiring is identical in
// every instance built from the same seed.
func (r *RoughL0) levelRNG(j int) *rand.Rand {
	return rand.New(rand.NewSource(r.levelSeed ^ (int64(j)+1)*0x5851F42D4C957F2D))
}

// Update feeds one stream update.
func (r *RoughL0) Update(i uint64, delta int64) {
	if r.windowed {
		r.rough.Update(i)
		r.syncLevels()
	}
	lvl := hash.LSB(r.h.Field(i), r.maxLevel)
	if lvl > r.maxLevel {
		lvl = r.maxLevel
	}
	if b, ok := r.levels[lvl]; ok {
		b.Update(i, delta)
	}
}

// Estimate returns R in [L0, c*L0] with constant probability (c = 110
// for the baseline; the windowed variant matches on alpha-property
// streams). Following [40]: find the largest maintained level j whose
// exact counter reports more than 8 live items and return
// (20000/99) * 2^j; with no such level return 50.
func (r *RoughL0) Estimate() int64 {
	best := -1
	for j, b := range r.levels {
		if b.CountSaturating() > roughEta && j > best {
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
func (r *RoughL0) LiveLevels() int { return len(r.levels) }

// Merge folds another RoughL0 built from the same seed into this one:
// the rough-F0 tracker merges, levels maintained by both add their
// exact counters, levels maintained by only one survive, and the window
// re-syncs at the merged estimate.
func (r *RoughL0) Merge(other *RoughL0) error {
	if other == nil {
		return fmt.Errorf("l0: merge with nil RoughL0")
	}
	if r.maxLevel != other.maxLevel || r.windowed != other.windowed ||
		r.window != other.window || r.levelSeed != other.levelSeed || !r.h.Equal(other.h) {
		return fmt.Errorf("l0: merging RoughL0 with different wiring (same seed/params required)")
	}
	if r.rough != nil {
		if err := r.rough.Merge(other.rough); err != nil {
			return err
		}
	}
	for j, ob := range other.levels {
		if b, ok := r.levels[j]; ok {
			if err := b.Merge(ob); err != nil {
				return err
			}
		} else {
			r.levels[j] = ob.Clone()
			r.created[j] = true
		}
	}
	r.syncLevels()
	return nil
}

// Clone returns a deep copy sharing the (immutable) hash function.
func (r *RoughL0) Clone() *RoughL0 {
	c := &RoughL0{
		maxLevel:   r.maxLevel,
		levels:     make(map[int]*ExactSmall, len(r.levels)),
		h:          r.h,
		levelSeed:  r.levelSeed,
		windowed:   r.windowed,
		window:     r.window,
		levelFloor: r.levelFloor,
		created:    make(map[int]bool, len(r.created)),
	}
	if r.rough != nil {
		c.rough = r.rough.Clone()
	}
	for j, b := range r.levels {
		c.levels[j] = b.Clone()
	}
	for j := range r.created {
		c.created[j] = true
	}
	return c
}

// SpaceBits sums the live level structures, the level hash, and the
// rough-F0 tracker.
func (r *RoughL0) SpaceBits() int64 {
	var total int64
	for _, b := range r.levels {
		total += b.SpaceBits()
	}
	total += r.h.SpaceBits()
	if r.rough != nil {
		total += r.rough.SpaceBits()
	}
	return total
}
