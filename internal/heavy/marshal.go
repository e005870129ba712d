package heavy

import (
	"repro/internal/csss"
	"repro/internal/wire"
)

// Wire states of the two alpha-property heavy hitters structures: each
// nests its components' states (the CSSS / Count-Sketch counters, the
// candidate tracker, the L1 scale), in a fixed order. The mode, eps and
// every dimension and hash wiring are the constructor's.

// MarshalBinary encodes the Section 3 structure.
func (h *AlphaL1) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// EncodedLen is the length of the structure's encoding.
func (h *AlphaL1) EncodedLen() int { return h.lenAt(h.sk.Layout()) }

// lenAt is the length of the encoding with the table laid out as l.
func (h *AlphaL1) lenAt(l wire.Layout) int {
	n := csss.LenAt(l) + h.tracker.EncodedLen()
	if h.scale.l1Est != nil {
		return n + h.scale.l1Est.EncodedLen()
	}
	return n + 16
}

// AppendBinary appends the structure's encoding to dst, growing it
// once by the length its components will take; the table is scanned
// for its layout once, for that length, and written as it.
func (h *AlphaL1) AppendBinary(dst []byte) ([]byte, error) {
	l := h.sk.Layout()
	w := wire.State(wire.Grow(dst, h.lenAt(l)))
	if h.scale.l1Est != nil {
		w.Marshal(h.scale.l1Est)
	} else {
		w.I64(h.scale.l1Exact)
		w.I64(h.scale.maxL1)
	}
	h.sk.Write(w, l)
	w.Marshal(h.tracker)
	return w.Bytes(), nil
}

// Fill restores the state into a structure fresh from NewAlphaL1 with
// the encoder's parameters (wire.Filler).
func (h *AlphaL1) Fill(r *wire.Reader) {
	if h.scale.l1Est != nil {
		h.scale.l1Est.Fill(r)
	} else {
		h.scale.l1Exact, h.scale.maxL1 = r.I64(), r.I64()
	}
	h.sk.Fill(r)
	h.tracker.Fill(r)
}

// MarshalBinary encodes the Appendix A structure.
func (h *AlphaL2) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// EncodedLen is the length of the structure's encoding.
func (h *AlphaL2) EncodedLen() int {
	return h.insCS.EncodedLen() + h.verCS.EncodedLen() + h.trk.EncodedLen()
}

// AppendBinary appends the structure's encoding to dst, growing it
// once by the length its components will take.
func (h *AlphaL2) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, h.EncodedLen()))
	w.Marshal(h.insCS)
	w.Marshal(h.verCS)
	w.Marshal(h.trk)
	return w.Bytes(), nil
}

// Fill restores the state into a structure fresh from NewAlphaL2 with
// the encoder's parameters (wire.Filler).
func (h *AlphaL2) Fill(r *wire.Reader) {
	h.insCS.Fill(r)
	h.verCS.Fill(r)
	h.trk.Fill(r)
}
