package csss

import (
	"errors"
	"math"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of a CSSampSim sketch: the sampling clock (t, p), maxCount,
// then the positive/negative counter pairs as one count column (packed
// at the width most counters need, the few wide ones patched in), so the
// table travels in about the 2·cells·BitsFor(maxCount) bits SpaceBits
// charges it or fewer. The Figure 2 parameters and the hash wiring are
// the constructor's; scale, estScale and nextHalf are pure functions of
// (params, p) and are rederived on restore; the per-update scratch and
// the row-hash memo start empty. The restored instance reseeds its
// thinning rng deterministically from the state — counters are exact,
// the rng only drives future halvings and sampling decisions, so any
// fixed reseed preserves Theorem 1's guarantees.

// MarshalBinary encodes the sketch's state.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding: what an enclosing
// structure grows its buffer by.
func (s *Sketch) EncodedLen() int { return LenAt(s.Layout()) }

// LenAt is the length of the encoding with the table laid out as l.
func LenAt(l wire.Layout) int { return 20 + l.Len() }

// StateLen is the least encoded length of a sketch with params p: its
// table one byte a counter, nothing patched.
func StateLen(p Params) int { return 20 + wire.MinColumnLen(2*p.Rows*6*p.K) }

// Layout is the count column the table packs as: one scan of the
// counters (not of maxCount, which only SpaceBits refreshes: encoding
// leaves the sketch alone). A structure that sizes its buffer by it
// (LenAt) hands it to Write rather than have the table scanned again.
func (s *Sketch) Layout() wire.Layout { return wire.LayoutOf(s.counters()) }

// AppendBinary appends the sketch's encoding to dst.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	l := s.Layout()
	w := wire.State(wire.Grow(dst, LenAt(l)))
	s.Write(w, l)
	return w.Bytes(), nil
}

// Write appends the sketch's encoding to w with the table laid out as
// l, which is Layout()'s value.
func (s *Sketch) Write(w *wire.Writer, l wire.Layout) {
	w.I64(s.t)
	w.U32(uint32(s.p))
	w.I64(s.maxCount)
	w.Counts(s.counters(), l)
}

// Fill restores the state into a sketch fresh from New with the
// encoder's parameters (wire.Filler).
func (s *Sketch) Fill(r *wire.Reader) {
	at := r.Offset()
	t := r.I64()
	p := int(r.U32())
	s.maxCount = r.I64()
	or := r.Counts(s.counters())
	if r.Err() != nil {
		return
	}
	if !s.ExponentFits(p) || t < 0 || t > s.params.S<<uint(p+1) {
		// ExponentFits keeps the rederived halving boundary S*2^(p+1)+1
		// inside int64. The last clause keeps t short of that boundary:
		// every Update, Merge and Clone leaves it so (they halve until it
		// is), and UpdateColumns sizes its runs by the room left below it.
		r.Fail(errors.New("csss: bad Sketch sampling clock"))
		return
	}
	// A counter past MaxInt64 is negative once read as a count; a patch
	// can set its top bit at any low width, so the values are checked.
	if int64(or) < 0 {
		r.Fail(errors.New("csss: negative sampled counter"))
		return
	}
	s.t, s.p, s.haveLast, s.halved = t, p, false, 0
	s.rng = sample.Seeded(wire.Seed(r.Since(at)))
	s.scale = math.Ldexp(1, p)
	s.estScale = s.scale / float64(s.fpUnit)
	// nextHalf follows the S*2^r + 1 schedule: r = p+1 boundaries passed.
	s.nextHalf = s.params.S<<uint(p+1) + 1
	sampleExponent.Set(int64(p))
}

// MarshalBinary encodes the two-instance Lemma 5 tail estimator.
func (te *TailEstimator) MarshalBinary() ([]byte, error) { return te.AppendBinary(nil) }

// EncodedLen is the length of the tail estimator's encoding.
func (te *TailEstimator) EncodedLen() int { return te.CS1.EncodedLen() + te.CS2.EncodedLen() }

// AppendBinary appends the tail estimator's encoding to dst.
func (te *TailEstimator) AppendBinary(dst []byte) ([]byte, error) {
	l1, l2 := te.CS1.Layout(), te.CS2.Layout()
	w := wire.State(wire.Grow(dst, LenAt(l1)+LenAt(l2)))
	te.CS1.Write(w, l1)
	te.CS2.Write(w, l2)
	return w.Bytes(), nil
}

// Fill restores both instances (wire.Filler).
func (te *TailEstimator) Fill(r *wire.Reader) {
	te.CS1.Fill(r)
	te.CS2.Fill(r)
}
