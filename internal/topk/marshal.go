package topk

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/wire"
)

// Wire state of a Tracker: the (id, estimate) pairs in heap order, u32
// counted. The capacity is its owner's parameter, and the linear-probe
// index, the heap invariant and the cached |estimate| keys are all
// derivable, so Fill re-offers the entries through the normal insertion
// machinery rather than trusting the payload's structure.

// MarshalBinary encodes the tracked (item, estimate) set.
func (t *Tracker) MarshalBinary() ([]byte, error) { return t.AppendBinary(nil) }

// EncodedLen is the length of the tracker's encoding.
func (t *Tracker) EncodedLen() int { return 4 + 16*len(t.heap) }

// AppendBinary appends the tracker's encoding to dst.
func (t *Tracker) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(dst)
	w.U32(uint32(len(t.heap)))
	b := w.Extend(16 * len(t.heap))
	for i := range t.heap {
		binary.LittleEndian.PutUint64(b[16*i:], t.heap[i].id)
		binary.LittleEndian.PutUint64(b[16*i+8:], math.Float64bits(t.heap[i].est))
	}
	return w.Bytes(), nil
}

// Fill restores the entries into an empty tracker of the encoder's
// capacity (wire.Filler).
func (t *Tracker) Fill(r *wire.Reader) {
	n := r.Count(16, t.limit)
	b := r.Take(16 * n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := binary.LittleEndian.Uint64(b[16*i:])
		est := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
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
