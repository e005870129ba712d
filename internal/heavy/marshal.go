package heavy

import (
	"errors"

	"repro/internal/cauchy"
	"repro/internal/csss"
	"repro/internal/sketch"
	"repro/internal/topk"
	"repro/internal/wire"
)

// Wire layouts for the two alpha-property heavy hitters structures.
// Each payload nests its component structures' own framed payloads
// (CSSS / Count-Sketch tables with their hash wirings, the candidate
// tracker, the Cauchy scale estimator), so a restored instance carries
// the exact same linear maps as the original.
const (
	alphaL1Magic = "HA"
	alphaL2Magic = "HB"
	formatV1     = 1
)

// MarshalBinary encodes the Section 3 structure.
func (h *AlphaL1) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// AppendBinary appends the structure's encoding to dst, growing it
// once by the length its components will take.
func (h *AlphaL1) AppendBinary(dst []byte) ([]byte, error) {
	size := 3 + 33 + 4 + h.sk.EncodedLen() + 4 + h.tracker.EncodedLen()
	if h.mode == General {
		size += 4 + h.scale.l1Est.EncodedLen()
	}
	w := wire.Append(dst, alphaL1Magic, formatV1)
	w.Grow(size)
	w.U8(uint8(h.mode))
	w.F64(h.eps)
	w.U64(h.n)
	w.I64(h.scale.l1Exact)
	w.I64(h.scale.maxL1)
	if err := w.Marshal(h.sk); err != nil {
		return nil, err
	}
	if err := w.Marshal(h.tracker); err != nil {
		return nil, err
	}
	if h.mode == General {
		if err := w.Marshal(h.scale.l1Est); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores an AlphaL1 serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (h *AlphaL1) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, alphaL1Magic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("heavy: unsupported AlphaL1 format version")
	}
	mode := Mode(rd.U8())
	eps := rd.F64()
	n := rd.U64()
	l1Exact := rd.I64()
	maxL1 := rd.I64()
	if rd.Err() != nil {
		return rd.Err()
	}
	if mode != Strict && mode != General {
		return errors.New("heavy: unknown AlphaL1 mode")
	}
	if !(eps > 0 && eps < 1) {
		return errors.New("heavy: AlphaL1 eps out of range")
	}
	sk := &csss.Sketch{}
	rd.Unmarshal(sk)
	tracker := topk.Expect(l1TrackerCap(eps))
	rd.Unmarshal(tracker)
	var l1Est *cauchy.Sketch
	if mode == General {
		l1Est = &cauchy.Sketch{}
		rd.Unmarshal(l1Est)
	}
	if err := rd.Done(); err != nil {
		return err
	}
	h.mode, h.eps, h.n = mode, eps, n
	h.sk, h.tracker = sk, tracker
	h.scale = l1Scale{l1Exact: l1Exact, maxL1: maxL1, l1Est: l1Est}
	return nil
}

// MarshalBinary encodes the Appendix A structure.
func (h *AlphaL2) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// AppendBinary appends the structure's encoding to dst, growing it
// once by the length its components will take.
func (h *AlphaL2) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, alphaL2Magic, formatV1)
	w.Grow(3 + 24 + 4 + h.insCS.EncodedLen() + 4 + h.verCS.EncodedLen() + 4 + h.trk.EncodedLen())
	w.F64(h.eps)
	w.F64(h.alpha)
	w.U64(h.n)
	if err := w.Marshal(h.insCS); err != nil {
		return nil, err
	}
	if err := w.Marshal(h.verCS); err != nil {
		return nil, err
	}
	if err := w.Marshal(h.trk); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores an AlphaL2 serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (h *AlphaL2) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, alphaL2Magic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("heavy: unsupported AlphaL2 format version")
	}
	eps := rd.F64()
	alpha := rd.F64()
	n := rd.U64()
	if rd.Err() != nil {
		return rd.Err()
	}
	if !(eps > 0 && eps < 1) || alpha < 1 {
		return errors.New("heavy: AlphaL2 parameters out of range")
	}
	insCS, verCS := &sketch.CountSketch{}, &sketch.CountSketch{}
	rd.Unmarshal(insCS)
	rd.Unmarshal(verCS)
	trk := topk.Expect(l2TrackerCap(eps, alpha))
	rd.Unmarshal(trk)
	if err := rd.Done(); err != nil {
		return err
	}
	h.eps, h.alpha, h.n = eps, alpha, n
	h.insCS, h.verCS, h.trk = insCS, verCS, trk
	return nil
}
