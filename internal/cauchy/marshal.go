package cauchy

import (
	"errors"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire states. The matrix seeds (the two polynomial hashes that
// derandomize the Cauchy matrices), the dimensions and the grid are the
// constructor's, so a receiver built from the same seed holds the same
// linear map — the requirement for merging or continuing to update a
// shipped sketch — and only the counters travel: a level's y then y',
// zigzagged into one count column (packed at the width most counters
// need, the few wide ones patched in).

// readPeak reads the counter peak, refusing a negative one.
func (m *matrix) readPeak(r *wire.Reader) {
	if m.peak = r.I64(); m.peak < 0 {
		r.Fail(errors.New("cauchy: negative counter peak"))
	}
}

// MarshalBinary encodes the dense Figure 5 sketch's state: the counter
// peak, the stream mass and the level.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding: what an enclosing
// structure grows its buffer by.
func (s *Sketch) EncodedLen() int { return 16 + wire.LayoutOf(s.lv.c).Len() }

// SketchStateLen is the least encoded length of a Sketch with r main
// and rPrime median rows: its level one byte a counter, nothing patched.
func SketchStateLen(r, rPrime int) int { return 16 + wire.MinColumnLen(r+rPrime) }

// AppendBinary appends the sketch's encoding to dst.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	l := wire.LayoutOf(s.lv.c)
	w := wire.State(wire.Grow(dst, 16+l.Len()))
	w.I64(s.peak)
	w.I64(s.m)
	wire.WriteCounts(w, s.lv.c, l)
	return w.Bytes(), nil
}

// Fill restores the counters into a sketch of the encoder's dimensions
// (wire.Filler).
func (s *Sketch) Fill(r *wire.Reader) {
	s.readPeak(r)
	if s.m = r.I64(); s.m < 0 {
		r.Fail(errors.New("cauchy: negative Sketch mass"))
	}
	wire.ReadCounts(r, s.lv.c)
}

// MarshalBinary encodes the sampled Theorem 8 sketch's state: stream
// position, counter peak and every live level's start and counters.
func (s *SampledSketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sampled sketch's encoding.
func (s *SampledSketch) EncodedLen() int {
	n := 20
	for _, lv := range s.win.Each {
		n += 12 + wire.LayoutOf(lv.c).Len() // index, start and the counters' column
	}
	return n
}

// AppendBinary appends the sampled sketch's encoding to dst, growing
// it once by the length its live levels will take.
func (s *SampledSketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, s.EncodedLen()))
	w.I64(s.t)
	w.I64(s.peak)
	s.win.WriteLevels(w, func(lv *level) {
		w.I64(lv.start)
		wire.WriteCounts(w, lv.c, wire.LayoutOf(lv.c))
	})
	return w.Bytes(), nil
}

// Fill restores the state into a sketch fresh from NewSampledSketch
// with the encoder's parameters (wire.Filler). The restored instance
// reseeds its sampling rng deterministically from the state (counters
// are exact; the rng only drives future sampling decisions).
func (s *SampledSketch) Fill(r *wire.Reader) {
	at := r.Offset()
	if s.t = r.I64(); r.Err() == nil && s.t < 0 {
		r.Fail(errors.New("cauchy: negative SampledSketch position"))
	}
	s.readPeak(r)
	s.win.ReadLevels(r, func(int) *level {
		// The start and the counters, one byte a counter at the least.
		if !r.Need(8 + wire.MinColumnLen(s.r+s.rPrime)) {
			return nil
		}
		lv := s.open(r.I64())
		if wire.ReadCounts(r, lv.c); r.Err() != nil {
			return nil
		}
		return lv
	})
	s.rng = sample.Seeded(wire.Seed(r.Since(at)))
}
