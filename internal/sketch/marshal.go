package sketch

import "repro/internal/wire"

// Wire state of a CountSketch: mass, then the rows*cols counters
// zigzagged into one count column (packed at the width most counters
// need, the few wide ones patched in). The dimensions and hash wiring
// are its constructor's; a deserialized state combines (Add/Sub) with
// any sketch built the same way — the distributed-aggregation and
// synchronization use cases of linear sketches.

// MarshalBinary encodes the sketch's state.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return cs.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding: what an enclosing
// structure grows its buffer by.
func (cs *CountSketch) EncodedLen() int { return 8 + cs.layout().Len() }

// StateLen is the least encoded length of a sketch of n counters: one
// byte a counter, nothing patched.
func StateLen(n int) int { return 8 + wire.MinColumnLen(n) }

// layout is the count column the counters pack as.
func (cs *CountSketch) layout() wire.Layout {
	var h wire.Widths
	for _, v := range cs.flat {
		h.Add(wire.Zigzag(v))
	}
	return h.Layout()
}

// AppendBinary appends the sketch's encoding to dst.
func (cs *CountSketch) AppendBinary(dst []byte) ([]byte, error) {
	l := cs.layout()
	w := wire.State(wire.Grow(dst, 8+l.Len()))
	w.I64(cs.mass)
	col := w.Column(l)
	for i, v := range cs.flat {
		col.Put(i, wire.Zigzag(v))
	}
	return w.Bytes(), nil
}

// Fill restores the state into a sketch of the encoder's dimensions
// (wire.Filler).
func (cs *CountSketch) Fill(r *wire.Reader) {
	cs.mass = r.I64()
	col, ok := r.Column(len(cs.flat))
	if !ok {
		return
	}
	for i := range cs.flat {
		cs.flat[i] = wire.Unzigzag(col.Value(i))
	}
}
