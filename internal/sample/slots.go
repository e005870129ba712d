package sample

import (
	"errors"

	"repro/internal/wire"
)

// NumSlots bounds a level index: stream positions and universe sizes are
// 64-bit, so a level — floor(log_s t), or lsb / bit length of a hash
// into [n] — runs 0..64.
const NumSlots = 65

// Slots is the level-indexed slot set under both live-level windows: the
// position-driven interval schedule (Window) and the rough-estimate-
// driven R_t range of Sections 6-7 (l0.Window). T is the per-level
// payload; the set owns which levels exist, their ascending order and
// their wire framing — not which levels SHOULD exist (the driver's
// schedule) nor what a level holds. The live set need not be one
// contiguous range. The zero value is an empty set.
type Slots[T any] struct {
	slots   [NumSlots]*T // nil: level not live
	lo, end int          // every live slot lies in [lo, end)
}

// At returns level j's payload, nil when the level is not live. At and
// From are the per-update accessors: they inline to an array index.
func (s *Slots[T]) At(j int) *T { return s.slots[j] }

// From returns the slots of levels j and up, nil entries included.
func (s *Slots[T]) From(j int) []*T { return s.slots[j:] }

// Put installs level j.
func (s *Slots[T]) Put(j int, v *T) {
	s.slots[j] = v
	if s.lo >= s.end {
		s.lo, s.end = j, j+1
	} else {
		s.lo, s.end = min(s.lo, j), max(s.end, j+1)
	}
}

// Drop removes level j (a no-op when it is not live). Dropping inside an
// Each loop is safe: the loop goes on from j+1.
func (s *Slots[T]) Drop(j int) {
	s.slots[j] = nil
	for s.lo < s.end && s.slots[s.lo] == nil {
		s.lo++
	}
	for s.lo < s.end && s.slots[s.end-1] == nil {
		s.end--
	}
}

// Each yields the live levels in ascending j (a range-over-func
// iterator: for j, v := range s.Each), so per-level rng draws happen in
// a defined order and the encoding is canonical without a sort.
func (s *Slots[T]) Each(yield func(j int, v *T) bool) {
	for j := s.lo; j < s.end; j++ {
		if v := s.slots[j]; v != nil && !yield(j, v) {
			return
		}
	}
}

// Oldest returns the live level with the smallest j, or a nil payload
// when none is.
func (s *Slots[T]) Oldest() (int, *T) {
	for j, v := range s.Each {
		return j, v
	}
	return 0, nil
}

// Len returns the number of live levels.
func (s *Slots[T]) Len() int {
	n := 0
	for range s.Each {
		n++
	}
	return n
}

// Merge folds other's levels into s: a level live in both is combined
// with add, a level live only in other survives as a copy. The driver
// then syncs, which prunes what the merged stream's schedule no longer
// holds.
func (s *Slots[T]) Merge(other *Slots[T], add func(dst, src *T), copy func(src, dst *T) *T) {
	for j, ov := range other.Each {
		if v := s.slots[j]; v != nil {
			add(v, ov)
		} else {
			s.Put(j, copy(ov, nil))
		}
	}
}

// Clone returns a copy of the set whose payloads are copy's. copy(src,
// dst) may write into dst, into's payload at the same level (nil where
// into holds none), which the caller owns and gives up.
func (s *Slots[T]) Clone(into *Slots[T], copy func(src, dst *T) *T) Slots[T] {
	c := *s
	for j, v := range s.Each {
		c.slots[j] = copy(v, into.slots[j])
	}
	return c
}

// WriteLevels appends the level list every windowed structure ships:
// u32 count, then per level in ascending j its u32 index and whatever
// put writes for the payload.
func (s *Slots[T]) WriteLevels(wr *wire.Writer, put func(v *T)) {
	wr.U32(uint32(s.Len()))
	for j, v := range s.Each {
		wr.U32(uint32(j))
		put(v)
	}
}

// ReadLevels is the inverse of WriteLevels into an empty set; get
// reads level j's payload (its value is ignored once the reader has
// latched an error). The list may arrive in any order and need not be
// the driver's set for its state (the next sync settles that); a count
// above NumSlots or beyond the remaining bytes, an index above top —
// the highest level the structure can address — and a repeated level
// are refused.
func (s *Slots[T]) ReadLevels(rd *wire.Reader, top int, get func(j int) *T) {
	n := rd.Count(4, NumSlots)
	for i := 0; i < n && rd.Err() == nil; i++ {
		j := int(rd.U32())
		switch {
		case rd.Err() != nil:
		case j > top:
			rd.Fail(errors.New("sample: level index out of range"))
		case s.slots[j] != nil:
			rd.Fail(errors.New("sample: duplicate level"))
		default:
			if v := get(j); rd.Err() == nil {
				s.Put(j, v)
			}
		}
	}
}
