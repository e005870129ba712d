package sampler

import (
	"math"

	"repro/internal/csss"
	"repro/internal/wire"
)

// Wire state of the Figure 3 sampler: each instance's norm counters
// (r, q, maxR), tail-estimator pair and candidate tracker, in instance
// order. The
// Params, the copy count and every scaling hash are the constructor's.

// MarshalBinary encodes all parallel instances.
func (s *Sampler) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sampler's encoding.
func (s *Sampler) EncodedLen() int {
	n := 0
	for _, in := range s.instances {
		n += in.EncodedLen()
	}
	return n
}

// AppendBinary appends the sampler's encoding to dst, growing it once
// by the length its instances will take.
func (s *Sampler) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, s.EncodedLen()))
	for _, in := range s.instances {
		w.Marshal(in)
	}
	return w.Bytes(), nil
}

// Fill restores every instance into a sampler fresh from New with the
// encoder's Params and copy count (wire.Filler).
func (s *Sampler) Fill(r *wire.Reader) {
	for _, in := range s.instances {
		in.Fill(r)
	}
}

// StateLen is the least encoded length of a sampler built with p and
// copies: its instances track no candidates and their tables pack at
// width 1. Every state of that shape holds it, and it is known before
// anything is allocated.
func StateLen(p Params, copies int) int {
	p.fill()
	n := 24 + 2*csss.StateLen(p.csssParams()) + 4
	return n * min(copies, math.MaxInt/n) // saturates: no input fits it
}

// MarshalBinary encodes one sampling instance.
func (in *instance) MarshalBinary() ([]byte, error) { return in.AppendBinary(nil) }

// EncodedLen is the length of one instance's encoding.
func (in *instance) EncodedLen() int {
	return 24 + in.te.EncodedLen() + in.trk.EncodedLen()
}

// AppendBinary appends one sampling instance's encoding to dst.
func (in *instance) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(dst)
	w.I64(in.r)
	w.F64(in.q)
	w.I64(in.maxR)
	w.Marshal(in.te)
	w.Marshal(in.trk)
	return w.Bytes(), nil
}

// Fill restores one instance (wire.Filler).
func (in *instance) Fill(r *wire.Reader) {
	in.r, in.q, in.maxR = r.I64(), r.F64(), r.I64()
	in.te.Fill(r)
	in.trk.Fill(r)
}
