package topk

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/wire"
)

// Wire layout of a Tracker: capacity, then the (id, estimate) pairs in
// heap order. The linear-probe index, the heap invariant and the cached
// |estimate| keys are all derivable, so the restore path re-offers the
// entries through the normal insertion machinery rather than trusting
// the payload's structure.
const (
	trackerMagic    = "TK"
	trackerFormatV1 = 1
)

// MarshalBinary encodes the tracked (item, estimate) set.
func (t *Tracker) MarshalBinary() ([]byte, error) { return t.AppendBinary(nil) }

// EncodedLen is the length of the tracker's encoding.
func (t *Tracker) EncodedLen() int { return 3 + 8 + 16*len(t.heap) }

// AppendBinary appends the tracker's encoding to dst.
func (t *Tracker) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, trackerMagic, trackerFormatV1)
	w.U32(uint32(t.cap))
	w.U32(uint32(len(t.heap)))
	b := w.Extend(16 * len(t.heap))
	for i := range t.heap {
		binary.LittleEndian.PutUint64(b[16*i:], t.heap[i].id)
		binary.LittleEndian.PutUint64(b[16*i+8:], math.Float64bits(t.heap[i].est))
	}
	return w.Bytes(), nil
}

// Expect returns an unsized placeholder that restores only a payload of
// exactly this capacity. A tracker's tables are sized by its capacity
// (about 144 bytes per unit), not by the entries the payload carries, so
// an owner restoring one derives the capacity from its own parameters
// and has any other refused before anything is allocated.
func Expect(capacity int) *Tracker {
	if capacity < 1 {
		capacity = -1 // derived from bad parameters: matches no payload
	}
	return &Tracker{cap: capacity}
}

// UnmarshalBinary restores a tracker serialized by MarshalBinary into a
// zero Tracker or an Expect placeholder. On failure the receiver is left
// unchanged.
func (t *Tracker) UnmarshalBinary(data []byte) error {
	r, v, err := wire.NewReader(data, trackerMagic)
	if err != nil {
		return err
	}
	if v != trackerFormatV1 {
		return errors.New("topk: unsupported Tracker format version")
	}
	capacity := int(r.U32())
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if capacity < 1 || capacity > 1<<30 {
		return errors.New("topk: bad Tracker capacity")
	}
	if t.cap != 0 && capacity != t.cap {
		return errors.New("topk: Tracker capacity disagrees with its owner's parameters")
	}
	if n < 0 || n > 2*capacity || n*16 > r.Remaining() {
		return errors.New("topk: bad Tracker entry count")
	}
	b := r.Take(16 * n)
	if err := r.Done(); err != nil {
		return err
	}
	restored := New(capacity)
	for i := 0; i < n; i++ {
		id := binary.LittleEndian.Uint64(b[16*i:])
		est := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
		if math.IsNaN(est) {
			return errors.New("topk: NaN estimate in Tracker payload")
		}
		before := restored.Len()
		restored.Offer(id, est)
		if restored.Len() == before {
			// A duplicate id updates in place instead of growing the heap;
			// a valid payload never carries duplicates.
			return errors.New("topk: duplicate id in Tracker payload")
		}
	}
	*t = *restored
	return nil
}
