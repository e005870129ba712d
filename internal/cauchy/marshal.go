package cauchy

import (
	"errors"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire states. The matrix seeds (the two polynomial hashes that
// derandomize the Cauchy matrices) and the dimensions are the
// constructor's, so a receiver built from the same seed holds the same
// linear map — the requirement for merging or continuing to update a
// shipped sketch — and only the counters travel.

// MarshalBinary encodes the dense Figure 5 sketch's state.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (s *Sketch) EncodedLen() int { return SketchStateLen(s.r, s.rPrime) }

// SketchStateLen is the encoded length of a Sketch with r main and
// rPrime median rows.
func SketchStateLen(r, rPrime int) int { return 8*(r+rPrime) + 16 }

// AppendBinary appends the sketch's encoding to dst.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, s.EncodedLen()))
	w.FixedF64s(s.y)
	w.FixedF64s(s.yPrime)
	w.F64(s.maxAbs)
	w.I64(s.m)
	return w.Bytes(), nil
}

// Fill restores the counters into a sketch of the encoder's dimensions
// (wire.Filler).
func (s *Sketch) Fill(r *wire.Reader) {
	r.FixedF64s(s.y)
	r.FixedF64s(s.yPrime)
	s.maxAbs, s.m = r.F64(), r.I64()
	if s.m < 0 || s.maxAbs < 0 {
		r.Fail(errors.New("cauchy: negative Sketch diagnostics"))
	}
}

// MarshalBinary encodes the sampled Theorem 8 sketch's state: stream
// position, maxCount and every live level's fixed-point counters.
func (s *SampledSketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sampled sketch's encoding.
func (s *SampledSketch) EncodedLen() int { return 20 + s.win.Len()*(12+8*(s.r+s.rPrime)) }

// AppendBinary appends the sampled sketch's encoding to dst, growing
// it once by the length its live levels will take.
func (s *SampledSketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, s.EncodedLen()))
	w.I64(s.t)
	w.I64(s.maxCount)
	s.win.WriteLevels(w, func(lv *sampledLevel) {
		w.I64(lv.start)
		w.FixedI64s(lv.y)
		w.FixedI64s(lv.yPrime)
	})
	return w.Bytes(), nil
}

// Fill restores the state into a sketch fresh from NewSampledSketch
// with the encoder's parameters (wire.Filler). The restored instance
// reseeds its sampling rng deterministically from the state (counters
// are exact; the rng only drives future sampling decisions).
func (s *SampledSketch) Fill(r *wire.Reader) {
	at := r.Offset()
	s.t, s.maxCount = r.I64(), r.I64()
	if r.Err() == nil && s.t < 0 {
		r.Fail(errors.New("cauchy: negative SampledSketch position"))
	}
	s.win.ReadLevels(r, func(int) *sampledLevel {
		if !r.Need(8 * (1 + s.r + s.rPrime)) {
			return nil
		}
		lv := s.newLevel(0)
		lv.start = r.I64()
		r.FixedI64s(lv.y)
		r.FixedI64s(lv.yPrime)
		return lv
	})
	s.rng = sample.Seeded(wire.Seed(r.Since(at)))
}
