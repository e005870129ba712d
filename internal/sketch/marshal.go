package sketch

import "repro/internal/wire"

// Wire state of a CountSketch: mass, then the rows*cols counters. The
// dimensions and hash wiring are its constructor's; a deserialized
// state combines (Add/Sub) with any sketch built the same way — the
// distributed-aggregation and synchronization use cases of linear
// sketches.

// MarshalBinary encodes the sketch's state.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return cs.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (cs *CountSketch) EncodedLen() int { return 8 + 8*len(cs.flat) }

// AppendBinary appends the sketch's encoding to dst.
func (cs *CountSketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, cs.EncodedLen()))
	w.I64(cs.mass)
	w.FixedI64s(cs.flat)
	return w.Bytes(), nil
}

// Fill restores the state into a sketch of the encoder's dimensions
// (wire.Filler).
func (cs *CountSketch) Fill(r *wire.Reader) {
	cs.mass = r.I64()
	r.FixedI64s(cs.flat)
}
