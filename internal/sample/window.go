package sample

import (
	"errors"
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
// counter pair, Cauchy rows, Count-Sketch bins); the window owns which
// levels exist, their order and their wire framing, not what a level
// holds or how a structure draws its samples.
//
// Levels sit in a slot array indexed by j, so every traversal ascends:
// per-level rng draws happen in a defined order and the encoding is
// canonical without a sort. The live set moves only when t crosses a
// power of s, so Sync is one compare between moves.
type Window[T any] struct {
	base   int64
	slots  [maxLevel + 1]*T // nil: level not live
	lo, hi int              // every live slot lies in [lo, hi]
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
	return &Window[T]{base: base, hi: -1, from: 1}
}

// Sync makes the live set the schedule's at position t: levels that
// left [lo, hi] = ActiveLevels(t) are dropped, missing ones are built
// with fresh (in ascending j).
func (w *Window[T]) Sync(t int64, fresh func(j int) *T) {
	if w.from <= t && t <= w.last {
		return
	}
	lo, hi := ActiveLevels(t, w.base)
	for j := w.lo; j <= w.hi; j++ {
		if j < lo || j > hi {
			w.slots[j] = nil
		}
	}
	for j := lo; j <= hi; j++ {
		if w.slots[j] == nil {
			w.slots[j] = fresh(j)
		}
	}
	w.lo, w.hi = lo, hi
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

// Each yields the live levels in ascending j (a range-over-func
// iterator: for j, v := range w.Each).
func (w *Window[T]) Each(yield func(j int, v *T) bool) {
	for j := w.lo; j <= w.hi; j++ {
		if v := w.slots[j]; v != nil && !yield(j, v) {
			return
		}
	}
}

// Oldest returns the live level with the smallest j — the one that has
// sampled longest and answers queries — or a nil payload when none is.
func (w *Window[T]) Oldest() (int, *T) {
	for j, v := range w.Each {
		return j, v
	}
	return 0, nil
}

// Len returns the number of live levels.
func (w *Window[T]) Len() int {
	n := 0
	for range w.Each {
		n++
	}
	return n
}

// put installs level j, widening [lo, hi] to cover it.
func (w *Window[T]) put(j int, v *T) {
	w.slots[j] = v
	if w.lo > w.hi {
		w.lo, w.hi = j, j
	} else {
		w.lo, w.hi = min(w.lo, j), max(w.hi, j)
	}
}

// Merge folds other's levels into w: a level live in both is combined
// with add (both sampled at rate s^-j), a level live only in other
// survives as a copy. The caller then Syncs at the combined position,
// which prunes what the merged stream's schedule no longer holds.
func (w *Window[T]) Merge(other *Window[T], add func(dst, src *T), copy func(src *T) *T) {
	for j, ov := range other.Each {
		if v := w.slots[j]; v != nil {
			add(v, ov)
		} else {
			w.put(j, copy(ov))
		}
	}
	w.from, w.last = 1, 0
}

// Clone returns a copy of the window whose payloads are copy's.
func (w *Window[T]) Clone(copy func(src *T) *T) *Window[T] {
	c := *w
	for j, v := range w.Each {
		c.slots[j] = copy(v)
	}
	return &c
}

// WriteLevels appends the level list every windowed structure ships:
// u32 count, then per level in ascending j its u32 index and whatever
// put writes for the payload.
func (w *Window[T]) WriteLevels(wr *wire.Writer, put func(v *T)) {
	wr.U32(uint32(w.Len()))
	for j, v := range w.Each {
		wr.U32(uint32(j))
		put(v)
	}
}

// ReadLevels is the inverse of WriteLevels over interval base s >= 2;
// get reads one payload and reports whether it is well-formed. The list
// may arrive in any order and need not be the schedule's set for its
// position (the first Sync settles that); a count the remaining bytes
// cannot hold, an index past 62 and a repeated level are refused.
func ReadLevels[T any](rd *wire.Reader, base int64, get func() (*T, error)) (*Window[T], error) {
	n := int(rd.U32())
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if n > rd.Remaining() {
		return nil, errors.New("sample: level count exceeds payload")
	}
	w := NewWindow[T](base)
	for i := 0; i < n; i++ {
		j := int(rd.U32())
		v, err := get()
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if err != nil {
			return nil, err
		}
		if j > maxLevel {
			return nil, errors.New("sample: level index out of range")
		}
		if w.slots[j] != nil {
			return nil, errors.New("sample: duplicate level")
		}
		w.put(j, v)
	}
	return w, nil
}
