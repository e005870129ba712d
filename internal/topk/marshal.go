package topk

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/wire"
)

// Wire state of a Tracker: the entry count (u32), the ids in heap order
// as one count column (an id is an item index below the universe, so it
// packs at about that width rather than a word), then their estimates
// a float each. The capacity is its owner's parameter, and the
// linear-probe index, the heap invariant and the cached |estimate| keys
// are all derivable, so Fill re-offers the entries through the normal
// insertion machinery rather than trusting the payload's structure.

// MinLen is the least encoded length of a tracker: no entries.
const MinLen = 4 + 1

// MarshalBinary encodes the tracked (item, estimate) set.
func (t *Tracker) MarshalBinary() ([]byte, error) { return t.AppendBinary(nil) }

// EncodedLen is the length of the tracker's encoding.
func (t *Tracker) EncodedLen() int { return 4 + t.layout().Len() + 8*len(t.heap) }

// layout is the count column the ids pack as.
func (t *Tracker) layout() wire.Layout {
	var h wire.Widths
	for i := range t.heap {
		h.Add(t.heap[i].id)
	}
	return h.Layout()
}

// AppendBinary appends the tracker's encoding to dst.
func (t *Tracker) AppendBinary(dst []byte) ([]byte, error) {
	l := t.layout()
	w := wire.State(wire.Grow(dst, 4+l.Len()+8*len(t.heap)))
	w.U32(uint32(len(t.heap)))
	col := w.Column(l)
	for i := range t.heap {
		col.Put(i, t.heap[i].id)
	}
	b := w.Extend(8 * len(t.heap))
	for i := range t.heap {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(t.heap[i].est))
	}
	return w.Bytes(), nil
}

// Fill restores the entries into an empty tracker of the encoder's
// capacity (wire.Filler).
func (t *Tracker) Fill(r *wire.Reader) {
	n := r.Count(9, t.limit)
	col, ok := r.Column(n)
	b := r.Take(8 * n)
	if !ok || b == nil {
		return
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		id := col.Value(i)
		est := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		before := t.Len()
		if !math.IsNaN(est) {
			t.Offer(id, est)
		}
		if t.Len() == before {
			// A NaN is never offered, and a duplicate id updates in
			// place instead of growing the heap.
			r.Fail(errors.New("topk: NaN estimate or duplicate id in Tracker payload"))
		}
	}
}
