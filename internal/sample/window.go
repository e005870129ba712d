package sample

import (
	"math"
	"math/rand"

	"repro/internal/wire"
)

// maxLevel is the largest level index a window can hold: s >= 2 and
// t < 2^63 give floor(log_s t) <= 62.
const maxLevel = 62

// Window is the live-level set of the exponential-interval double-buffer
// schedule I_j = [s^j, s^{j+2}] from Figure 4, Theorem 2 and Theorem 8:
// at (1-indexed) position t exactly the two levels floor(log_s t)-1 and
// floor(log_s t) are live, level j samples at rate s^-j, and the
// survivor at query time — the oldest live level — has sampled at least
// a (1 - 2/s) suffix of the stream. T is the per-level payload (a
// counter pair, Cauchy rows, Count-Sketch bins); the window drives the
// slot set (Slots: which levels exist, their order, their wire framing)
// by stream position, and knows nothing of what a level holds or how a
// structure draws its samples.
//
// The live set moves only when t crosses a power of s, so Sync is one
// compare between moves.
type Window[T any] struct {
	Slots[T]
	base int64
	// The live set is the schedule's at every position in [from, last].
	// from > last marks a set nobody has synced (fresh from ReadLevels
	// or Merge): the next Sync runs in full.
	from, last int64
}

// NewWindow returns an empty window over interval base s >= 2.
func NewWindow[T any](base int64) *Window[T] {
	if base < 2 {
		panic("sample: interval base must be >= 2")
	}
	return &Window[T]{base: base, from: 1}
}

// Reset empties the window, as NewWindow returns it.
func (w *Window[T]) Reset() { *w = Window[T]{base: w.base, from: 1} }

// Sync makes the live set the schedule's at position t: levels that
// left [lo, hi] = ActiveLevels(t) are dropped, missing ones are built
// with fresh (in ascending j).
func (w *Window[T]) Sync(t int64, fresh func(j int) *T) {
	if w.from <= t && t <= w.last {
		return
	}
	lo, hi := ActiveLevels(t, w.base)
	for j := range w.Each {
		if j < lo || j > hi {
			w.Drop(j)
		}
	}
	for j := lo; j <= hi; j++ {
		if w.At(j) == nil {
			w.Put(j, fresh(j))
		}
	}
	// The set holds while floor(log_s t) == hi, i.e. on [s^hi, s^(hi+1));
	// hi == 0 also covers every t < 1, and the top level never ends.
	w.from, w.last = math.MinInt64, math.MaxInt64
	p := Pow(w.base, hi)
	if hi > 0 {
		w.from = p
	}
	if p <= math.MaxInt64/w.base {
		w.last = p*w.base - 1
	}
}

// Step moves an exact position counter through the head of n >= 1 unit
// updates: it advances *t to the next position, syncs there, and returns
// the length of the run (1 <= run <= n) of positions that share that
// live set, leaving *t on the run's last. The caller applies the run to
// every live level at once (Thin), so a delta of any magnitude costs
// O(1) draws per live level per window move. Positions saturate.
func (w *Window[T]) Step(t *int64, n int64, fresh func(j int) *T) int64 {
	*t = AddPos(*t, 1)
	w.Sync(*t, fresh)
	run := n
	if w.last < math.MaxInt64 && w.last-*t < n-1 {
		run = w.last - *t + 1
	}
	*t = AddPos(*t, run-1)
	return run
}

// AddPos adds two nonnegative stream positions, saturating at MaxInt64.
func AddPos(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Thin returns how many of a run of unit updates survive sampling at
// rate 1/denom. A run of one is the single Int63n coin the per-unit
// samplers have always flipped, so unit-delta streams keep their rng
// sequence; a longer run is one Binomial draw.
func Thin(rng *rand.Rand, run, denom int64) int64 {
	switch {
	case denom <= 1:
		return run
	case run == 1:
		if rng.Int63n(denom) == 0 {
			return 1
		}
		return 0
	}
	return Binomial(rng, run, 1/float64(denom))
}

// Merge folds other's levels into w (Slots.Merge: both sides of a shared
// level sampled at rate s^-j, so add sums them). The caller then Syncs
// at the combined position.
func (w *Window[T]) Merge(other *Window[T], add func(dst, src *T), copy func(src, dst *T) *T) {
	w.Slots.Merge(&other.Slots, add, copy)
	w.from, w.last = 1, 0
}

// CloneInto returns a copy of the window whose payloads are copy's,
// written into dst (nil: a new window) and its payloads (Slots.Clone).
func (w *Window[T]) CloneInto(dst *Window[T], copy func(src, dst *T) *T) *Window[T] {
	if dst == nil {
		dst = new(Window[T])
	}
	*dst = Window[T]{Slots: w.Slots.Clone(&dst.Slots, copy), base: w.base, from: w.from, last: w.last}
	return dst
}

// ReadLevels fills an empty window from a WriteLevels list (see
// Slots.ReadLevels); the window is unsynced.
func (w *Window[T]) ReadLevels(rd *wire.Reader, get func(j int) *T) {
	w.Slots.ReadLevels(rd, maxLevel, get)
}
