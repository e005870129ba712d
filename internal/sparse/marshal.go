package sparse

import (
	"encoding/binary"
	"errors"

	"repro/internal/nt"
	"repro/internal/wire"
)

// Wire state of a Recovery sketch: maxCount, the cells' counts
// zigzagged into one count column (packed at the width most counts
// need, the few wide ones patched in), then each cell's key and
// fingerprint sums (field elements, a word each). The sketch is linear,
// so a client can ship its sketch of the old file state, have the
// server subtract it from a sketch of the new state (built from the
// same seed, so the hash functions are the server's own), and decode
// exactly the changed coordinates — the paper's remote differential
// compression scenario end to end.

var errBadRecoveryData = errors.New("sparse: malformed Recovery data")

// MarshalBinary encodes the sketch's state.
func (r *Recovery) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding: what an enclosing
// structure grows its buffer by.
func (r *Recovery) EncodedLen() int { return r.LenAt(r.Layout()) }

// LenAt is the length of the encoding with the count column laid out
// as l.
func (r *Recovery) LenAt(l wire.Layout) int { return 8 + l.Len() + 16*len(r.cells) }

// StateLen is the least encoded length of a sketch of the given
// capacity: its counts one byte each, nothing patched.
func StateLen(capacity int) int {
	cells := subtables * perTableFor(capacity)
	return 8 + wire.MinColumnLen(cells) + 16*cells
}

// Layout is the count column the counts pack as: one scan of the
// counts. A structure that sizes its buffer by it (LenAt) hands it to
// Write rather than have the count column scanned again.
func (r *Recovery) Layout() wire.Layout {
	var h wire.Widths
	for i := range r.cells {
		h.Add(wire.Zigzag(r.cells[i].count))
	}
	return h.Layout()
}

// AppendBinary appends the sketch's encoding to dst.
func (r *Recovery) AppendBinary(dst []byte) ([]byte, error) {
	l := r.Layout()
	w := wire.State(wire.Grow(dst, r.LenAt(l)))
	r.Write(w, l)
	return w.Bytes(), nil
}

// Write appends the sketch's encoding to w with the count column laid
// out as l, which is Layout()'s value.
func (r *Recovery) Write(w *wire.Writer, l wire.Layout) {
	w.I64(r.maxCount)
	// One pass over the cells fills both columns: the Grow above made
	// room for the sums, so extending for them leaves col in place.
	col := w.Column(l)
	sums := w.Extend(16 * len(r.cells))
	for i := range r.cells {
		c := &r.cells[i]
		col.Put(i, wire.Zigzag(c.count))
		binary.LittleEndian.PutUint64(sums[16*i:], c.keySum)
		binary.LittleEndian.PutUint64(sums[16*i+8:], c.fpSum)
	}
}

// Fill restores the state into a sketch of the encoder's dimensions
// (wire.Filler).
func (r *Recovery) Fill(rd *wire.Reader) {
	r.maxCount = rd.I64()
	col, ok := rd.Column(len(r.cells))
	b := rd.Take(16 * len(r.cells))
	if !ok || b == nil {
		return
	}
	for i := range r.cells {
		c := &r.cells[i]
		c.count = wire.Unzigzag(col.Value(i))
		c.keySum = binary.LittleEndian.Uint64(b[16*i:])
		c.fpSum = binary.LittleEndian.Uint64(b[16*i+8:])
		// Every encoder writes reduced sums; the field adds and the
		// decode's division test assume them.
		if c.keySum >= nt.MersennePrime61 || c.fpSum >= nt.MersennePrime61 {
			rd.Fail(errBadRecoveryData)
			return
		}
	}
}
