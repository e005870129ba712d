package sketch

import "repro/internal/wire"

// Wire state of a CountSketch: mass, then the rows*cols counters
// zigzagged and packed at the byte width of their OR behind the width
// byte. The dimensions and hash wiring are its constructor's; a
// deserialized state combines (Add/Sub) with any sketch built the same
// way — the distributed-aggregation and synchronization use cases of
// linear sketches.

// MarshalBinary encodes the sketch's state.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return cs.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding: what an enclosing
// structure grows its buffer by.
func (cs *CountSketch) EncodedLen() int { return StateLen(len(cs.flat), cs.width()) }

// StateLen is the encoded length of n counters packed at width; at
// width 1 it is the least length of a sketch of n counters.
func StateLen(n, width int) int { return 9 + n*width }

// width is the byte width the counters pack at.
func (cs *CountSketch) width() int {
	var or uint64
	for _, v := range cs.flat {
		or |= wire.Zigzag(v)
	}
	return wire.ByteWidth(or)
}

// AppendBinary appends the sketch's encoding to dst.
func (cs *CountSketch) AppendBinary(dst []byte) ([]byte, error) {
	width := cs.width()
	w := wire.State(wire.Grow(dst, StateLen(len(cs.flat), width)))
	w.I64(cs.mass)
	w.U8(uint8(width))
	col := w.Column(len(cs.flat), width)
	for i, v := range cs.flat {
		col.Put(i, wire.Zigzag(v))
	}
	return w.Bytes(), nil
}

// Fill restores the state into a sketch of the encoder's dimensions
// (wire.Filler).
func (cs *CountSketch) Fill(r *wire.Reader) {
	cs.mass = r.I64()
	col, ok := r.Column(len(cs.flat), int(r.U8()))
	if !ok {
		return
	}
	for i := range cs.flat {
		cs.flat[i] = wire.Unzigzag(col.At(i))
	}
}
