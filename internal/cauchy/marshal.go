package cauchy

import (
	"errors"

	"repro/internal/hash"
	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire layouts. Both sketches serialize their matrix seeds (the two
// polynomial hashes that derandomize the Cauchy matrices) alongside the
// counters, so a receiver reconstructs the exact same linear map — the
// requirement for merging or continuing to update a shipped sketch.
const (
	sketchMagic        = "CY"
	sampledSketchMagic = "CZ"
	formatV1           = 1
)

// MarshalBinary encodes the dense Figure 5 sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (s *Sketch) EncodedLen() int {
	return 3 + 8 + 4 + s.hA.EncodedLen() + 4 + s.hAPrime.EncodedLen() + 4 + 8*len(s.y) + 4 + 8*len(s.yPrime) + 16
}

// AppendBinary appends the sketch's encoding to dst.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, sketchMagic, formatV1)
	w.Grow(s.EncodedLen())
	w.U32(uint32(s.r))
	w.U32(uint32(s.rPrime))
	if err := w.Marshal(s.hA); err != nil {
		return nil, err
	}
	if err := w.Marshal(s.hAPrime); err != nil {
		return nil, err
	}
	w.F64s(s.y)
	w.F64s(s.yPrime)
	w.F64(s.maxAbs)
	w.I64(s.m)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a dense sketch serialized by MarshalBinary.
// On failure the receiver is left unchanged.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, sketchMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("cauchy: unsupported Sketch format version")
	}
	r := int(rd.U32())
	rPrime := int(rd.U32())
	hA, hAPrime := &hash.KWise{}, &hash.KWise{}
	rd.Unmarshal(hA)
	rd.Unmarshal(hAPrime)
	y := rd.F64s()
	yPrime := rd.F64s()
	maxAbs := rd.F64()
	m := rd.I64()
	if err := rd.Done(); err != nil {
		return err
	}
	if r < 1 || rPrime < 1 || len(y) != r || len(yPrime) != rPrime {
		return errors.New("cauchy: Sketch dimensions disagree with counters")
	}
	if m < 0 || maxAbs < 0 {
		return errors.New("cauchy: negative Sketch diagnostics")
	}
	s.r, s.rPrime = r, rPrime
	s.hA, s.hAPrime = hA, hAPrime
	s.y, s.yPrime = y, yPrime
	s.maxAbs, s.m = maxAbs, m
	return nil
}

// MarshalBinary encodes the sampled Theorem 8 sketch: parameters, matrix
// seeds, stream position, and every live level's fixed-point counters.
func (s *SampledSketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends the sampled sketch's encoding to dst, growing
// it once by the length its live levels will take.
func (s *SampledSketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, sampledSketchMagic, formatV1)
	w.Grow(3 + 20 + 4 + s.hA.EncodedLen() + 4 + s.hAPrime.EncodedLen() + 20 + s.win.Len()*(20+8*(s.r+s.rPrime)))
	w.U32(uint32(s.r))
	w.U32(uint32(s.rPrime))
	w.I64(s.base)
	w.U32(uint32(s.fpBits))
	if err := w.Marshal(s.hA); err != nil {
		return nil, err
	}
	if err := w.Marshal(s.hAPrime); err != nil {
		return nil, err
	}
	w.I64(s.t)
	w.I64(s.maxCount)
	s.win.WriteLevels(w, func(lv *sampledLevel) {
		w.I64(lv.start)
		w.I64s(lv.y)
		w.I64s(lv.yPrime)
	})
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sampled sketch serialized by MarshalBinary.
// The restored instance reseeds its sampling rng deterministically from
// the payload (counters are exact; the rng only drives future sampling
// decisions). On failure the receiver is left unchanged.
func (s *SampledSketch) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, sampledSketchMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("cauchy: unsupported SampledSketch format version")
	}
	r := int(rd.U32())
	rPrime := int(rd.U32())
	base := rd.I64()
	fpBits := uint(rd.U32())
	hA, hAPrime := &hash.KWise{}, &hash.KWise{}
	rd.Unmarshal(hA)
	rd.Unmarshal(hAPrime)
	t := rd.I64()
	maxCount := rd.I64()
	if rd.Err() != nil {
		return rd.Err()
	}
	if r < 1 || rPrime < 1 || base < 4 || fpBits > 62 || t < 0 {
		return errors.New("cauchy: bad SampledSketch parameters")
	}
	win, err := sample.ReadLevels(rd, base, func() (*sampledLevel, error) {
		lv := &sampledLevel{start: rd.I64(), y: rd.I64s(), yPrime: rd.I64s()}
		if len(lv.y) != r || len(lv.yPrime) != rPrime {
			return nil, errors.New("cauchy: bad SampledSketch level")
		}
		return lv, nil
	})
	if err != nil {
		return err
	}
	if err := rd.Done(); err != nil {
		return err
	}
	s.r, s.rPrime = r, rPrime
	s.base, s.fpBits = base, fpBits
	s.hA, s.hAPrime = hA, hAPrime
	s.t, s.maxCount = t, maxCount
	s.win = win
	s.rng = sample.Seeded(wire.Seed(data))
	return nil
}
