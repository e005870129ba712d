package csss

import (
	"errors"
	"math"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of a CSSampSim sketch: the sampling clock (t, p), maxCount,
// then the positive/negative counter pairs packed at one byte width —
// that of the OR of the counters, so the table travels in about the
// 2·cells·BitsFor(maxCount) bits SpaceBits charges it — behind the
// width byte. The Figure 2 parameters and the hash wiring are the
// constructor's; scale, estScale and nextHalf are pure functions of
// (params, p) and are rederived on restore; the per-update scratch and
// the row-hash memo start empty. The restored instance reseeds its
// thinning rng deterministically from the state — counters are exact,
// the rng only drives future halvings and sampling decisions, so any
// fixed reseed preserves Theorem 1's guarantees.

// MarshalBinary encodes the sketch's state.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding: what an enclosing
// structure grows its buffer by.
func (s *Sketch) EncodedLen() int { return stateLen(len(s.table), s.width()) }

// StateLen is the least encoded length of a sketch with params p: its
// table packed at width 1.
func StateLen(p Params) int { return stateLen(p.Rows*6*p.K, 1) }

func stateLen(cells, width int) int { return 21 + 2*cells*width }

// width is the byte width the table packs at. It reads the counters
// themselves, not maxCount, which only SpaceBits refreshes: encoding
// leaves the sketch alone.
func (s *Sketch) width() int {
	// Four lanes: the ORs of one lane wait on each other, not on the
	// other lanes'.
	var a, b, c, d uint64
	v := s.counters()
	for ; len(v) >= 4; v = v[4:] {
		a |= v[0]
		b |= v[1]
		c |= v[2]
		d |= v[3]
	}
	for _, x := range v {
		a |= x
	}
	return wire.ByteWidth(a | b | c | d)
}

// AppendBinary appends the sketch's encoding to dst.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	width := s.width()
	w := wire.State(wire.Grow(dst, stateLen(len(s.table), width)))
	w.I64(s.t)
	w.U32(uint32(s.p))
	w.I64(s.maxCount)
	w.U8(uint8(width))
	w.Packed(s.counters(), width)
	return w.Bytes(), nil
}

// Fill restores the state into a sketch fresh from New with the
// encoder's parameters (wire.Filler).
func (s *Sketch) Fill(r *wire.Reader) {
	at := r.Offset()
	t := r.I64()
	p := int(r.U32())
	s.maxCount = r.I64()
	width := int(r.U8())
	r.Packed(s.counters(), width)
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
	if width == 8 {
		for _, v := range s.counters() {
			if int64(v) < 0 {
				r.Fail(errors.New("csss: negative sampled counter"))
				return
			}
		}
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
	w := wire.State(wire.Grow(dst, te.EncodedLen()))
	w.Marshal(te.CS1)
	w.Marshal(te.CS2)
	return w.Bytes(), nil
}

// Fill restores both instances (wire.Filler).
func (te *TailEstimator) Fill(r *wire.Reader) {
	te.CS1.Fill(r)
	te.CS2.Fill(r)
}
