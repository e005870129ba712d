package l0

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/wire"
)

// Window is the rough-estimate-driven live-level window of Sections 6-7:
// the one mechanism that turns log n into log alpha. Of the log n rows
// (Figure 7), levels (Lemma 20) or level sketches (Figure 8) a structure
// could keep, only the O(log(alpha/eps)) around log2 of the rough
// estimate R_t are live. R_t never falls (Corollary 2) and the live set
// is a function of R_t alone, so the window moves only at the O(log n)
// items that raise it: between them an update costs one compare, and a
// key column is cut at exactly those items (CutRuns).
//
// The window owns the slots (sample.Slots, shared with the position-
// driven interval schedule), the estimate they were last synced at, the
// per-item and per-column steps, merge, clone, the peak live count, the
// set of levels ever instantiated and the level-list wire framing. A
// structure keeps what is its own — the payload T, its fresh(j)
// constructor and its span(R) centre formula — and hands the last two
// in per call, so the window stores no closure and a struct copy of its
// owner stays a correct shallow clone.
type Window[T any] struct {
	sample.Slots[T]
	top      int  // highest level the structure addresses
	windowed bool // false: the unbounded-deletion baseline, every level for good
	alwaysOn int  // the top alwaysOn levels are live at every estimate
	stats    *WindowStats
	// syncedAt is the rough estimate the live set was last synced at;
	// unsynced marks a set nobody has synced (new, or fresh from
	// ReadLevels or Merge): the next Sync runs in full, whatever R_t is.
	// That is what lets a restored live set that disagrees with its own
	// estimate converge on the first update, per item and per column
	// alike.
	syncedAt int64
	peak     int                    // most levels live after any Sync
	ever     sample.Slots[struct{}] // levels ever instantiated here
}

// instantiated is the payload of every ever slot.
var instantiated = &struct{}{}

// unsynced is the syncedAt of a live set nobody has synced: no rough
// estimate is negative.
const unsynced = -1

// WindowStats are the process-wide series a windowed structure
// publishes (obs primitives), written once per window event or per
// planned batch, never per key.
type WindowStats struct {
	Events obs.Counter // updates that raised R_t and moved a window
	Live   obs.Gauge   // levels held by the window that synced last
	Rough  obs.Gauge   // the R_t it synced at: the family's regime variable
	// Updates of the planned batches the window cut, and the distinct
	// keys among them: what its structure hashed.
	BatchKeys, KeysHashed obs.Counter
}

// NewWindow returns an empty, unsynced window over levels 0..top whose
// highest alwaysOn levels never leave (Figure 8 keeps two). A window
// that is not windowed is the keep-all-levels baseline the paper
// compares against: it never consults span and no estimate moves it.
// stats may be nil.
func NewWindow[T any](top int, windowed bool, alwaysOn int, stats *WindowStats) Window[T] {
	return Window[T]{top: top, windowed: windowed, alwaysOn: alwaysOn, stats: stats, syncedAt: unsynced}
}

// Sync makes the live set the one rough's estimate R calls for — levels
// lo..hi of span(R), clipped to 0..top, plus the always-on top levels —
// and reports whether it had to: levels that left are dropped, missing
// ones are built with fresh in ascending j. A baseline (whose rough may
// be nil) stands at estimate 0 with every level.
func (w *Window[T]) Sync(rough *RoughF0, span func(r int64) (lo, hi int), fresh func(j int) *T) bool {
	var at int64
	if w.windowed {
		at = rough.Estimate()
	}
	return w.syncAt(at, span, fresh)
}

// syncAt is Sync at an estimate the caller holds: the R_t another
// window's run is applied under (0 for a baseline).
func (w *Window[T]) syncAt(at int64, span func(r int64) (lo, hi int), fresh func(j int) *T) bool {
	if at == w.syncedAt {
		return false
	}
	lo, hi := 0, w.top
	if w.windowed {
		lo, hi = span(at)
	}
	for j := 0; j <= w.top; j++ {
		switch live := lo <= j && j <= hi || j > w.top-w.alwaysOn; {
		case !live:
			w.Drop(j)
		case w.At(j) == nil:
			w.Put(j, fresh(j))
			w.ever.Put(j, instantiated)
		}
	}
	w.syncedAt = at
	live := w.Len()
	w.peak = max(w.peak, live)
	if w.stats != nil {
		w.stats.Live.Set(int64(live))
		w.stats.Rough.Set(at)
	}
	return true
}

// moved syncs; a sync it had to run is one window event.
func (w *Window[T]) moved(rough *RoughF0, span func(int64) (int, int), fresh func(int) *T) {
	if w.Sync(rough, span, fresh) && w.stats != nil {
		w.stats.Events.Inc()
	}
}

// Observe is the per-item step: rough estimate, then the window it
// produces. The caller applies the item next, under that window. A
// baseline feeds its estimator if it carries one (the support sampler's
// does: it is part of the state) and stays put.
func (w *Window[T]) Observe(rough *RoughF0, i uint64, span func(int64) (int, int), fresh func(int) *T) {
	if rough != nil {
		rough.Update(i)
	}
	if w.windowed {
		w.moved(rough, span, fresh)
	}
}

// CutRuns is Observe for a key column: the rough estimator scans ahead
// and stops at each key that raises R_t — the only kind that can move
// the window — and apply gets each maximal run keys[lo:hi] over which
// the window stands still. The raising key heads the NEXT run: rough
// estimate, then the window it produces, then the item. An unsynced
// window converges as per-item Observe makes it, on the first key,
// whether or not that key moves R_t. State equals per-key Observe +
// apply.
func (w *Window[T]) CutRuns(rough *RoughF0, keys []uint64,
	span func(int64) (int, int), fresh func(int) *T, apply func(lo, hi int)) {
	pos, fed := 0, 0
	if !w.windowed {
		for rough != nil && fed < len(keys) {
			fed += rough.UpdateColumn(keys[fed:]) + 1
		}
		apply(0, len(keys))
		return
	}
	if rough.Estimate() != w.syncedAt && len(keys) > 0 {
		w.Observe(rough, keys[0], span, fresh)
		fed = 1
	}
	for pos < len(keys) {
		cut := fed + rough.UpdateColumn(keys[fed:])
		apply(pos, cut)
		pos, fed = cut, cut+1
		if cut < len(keys) {
			w.moved(rough, span, fresh)
		}
	}
}

// CutPlanned is CutRuns for a planned batch. The rough estimator scans
// the plan's distinct keys, in first-occurrence order, instead of every
// update: a repeat ORs in level bits its first occurrence already set,
// so only a first occurrence can raise R_t. A cut before distinct key o
// falls before that key's first update (core.First): apply gets update
// positions and the number of distinct keys the scan has reached —
// b.Idx[lo:hi] holds keys of ordinal below seen, none beyond.
func (w *Window[T]) CutPlanned(rough *RoughF0, b *core.Batch,
	span func(int64) (int, int), fresh func(int) *T, apply func(lo, hi, seen int)) {
	keys, _ := core.Distinct(b)
	first := core.First(b)
	if w.stats != nil {
		w.stats.BatchKeys.Add(int64(b.Len()))
		w.stats.KeysHashed.Add(int64(len(keys)))
	}
	w.CutRuns(rough, keys, span, fresh, func(lo, hi int) { apply(int(first[lo]), int(first[hi]), hi) })
}

// Merge folds other's levels into w: a level live in both is combined
// with add, a level live only in other survives as a copy (and counts
// as instantiated here). The window is left unsynced; the caller Syncs
// at the merged estimate.
func (w *Window[T]) Merge(other *Window[T], add func(dst, src *T) error, copy func(src, dst *T) *T) error {
	for j := range other.Each {
		if w.At(j) == nil {
			w.ever.Put(j, instantiated)
		}
	}
	var err error
	w.Slots.Merge(&other.Slots, func(dst, src *T) {
		if err == nil {
			err = add(dst, src)
		}
	}, copy)
	w.peak = max(w.peak, other.peak)
	w.syncedAt = unsynced
	return err
}

// Clone returns a copy of the window whose payloads are copy's, written
// into into's payloads (sample.Slots.Clone).
func (w *Window[T]) Clone(into *Window[T], copy func(src, dst *T) *T) Window[T] {
	c := *w
	c.Slots = w.Slots.Clone(&into.Slots, copy)
	return c
}

// Peak returns the largest live count any Sync has left (or a restored
// window was told of): what SpaceBits charges.
func (w *Window[T]) Peak() int { return w.peak }

// ReadLevels replaces the window's levels by a WriteLevels list (see
// sample.Slots.ReadLevels; an index above top is refused) and records
// the peak the state carried. get reads level j into built — the
// payload the window held at j before, which its constructor left
// fresh, or nil — and returns it. The window is left unsynced, with
// nothing instantiated (ReadEver restores that list).
func (w *Window[T]) ReadLevels(rd *wire.Reader, peak int, get func(j int, built *T) *T) {
	built := w.Slots
	*w = NewWindow[T](w.top, w.windowed, w.alwaysOn, w.stats)
	w.peak = peak
	w.Slots.ReadLevels(rd, w.top, func(j int) *T { return get(j, built.At(j)) })
}

// WriteEver appends the ascending list of levels ever instantiated — a
// level list without payloads: u32 count, then each u32 index.
func (w *Window[T]) WriteEver(wr *wire.Writer) { w.ever.WriteLevels(wr, func(*struct{}) {}) }

// ReadEver is the inverse of WriteEver, under the level list's rules.
func (w *Window[T]) ReadEver(rd *wire.Reader) {
	w.ever.ReadLevels(rd, w.top, func(int) *struct{} { return instantiated })
}
