package csss

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of a CSSampSim sketch: the sampling clock (t, p), maxCount
// and the positive/negative counter pairs. The Figure 2 parameters and
// the hash wiring are the constructor's; scale, estScale and nextHalf
// are pure functions of (params, p) and are rederived on restore; the
// per-update scratch and the row-hash memo start empty. The restored
// instance reseeds its thinning rng deterministically from the state —
// counters are exact, the rng only drives future halvings and sampling
// decisions, so any fixed reseed preserves Theorem 1's guarantees.

// MarshalBinary encodes the sketch's state.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (s *Sketch) EncodedLen() int { return StateLen(s.params) }

// StateLen is the encoded length of a sketch with params p.
func StateLen(p Params) int { return 20 + 16*p.Rows*6*p.K }

// AppendBinary appends the sketch's encoding to dst.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, s.EncodedLen()))
	w.I64(s.t)
	w.U32(uint32(s.p))
	w.I64(s.maxCount)
	b := w.Extend(16 * len(s.table))
	for c := range s.table {
		binary.LittleEndian.PutUint64(b[16*c:], uint64(s.table[c][0]))
		binary.LittleEndian.PutUint64(b[16*c+8:], uint64(s.table[c][1]))
	}
	return w.Bytes(), nil
}

// Fill restores the state into a sketch fresh from New with the
// encoder's parameters (wire.Filler).
func (s *Sketch) Fill(r *wire.Reader) {
	at := r.Offset()
	t := r.I64()
	p := int(r.U32())
	s.maxCount = r.I64()
	b := r.Take(16 * len(s.table))
	if b == nil {
		return
	}
	if p > 60 || t < 0 || s.params.S > int64(1)<<(61-uint(p)) || t > s.params.S<<uint(p+1) {
		// The S clause keeps the rederived halving boundary S*2^(p+1)+1
		// inside int64. The last clause keeps t short of that boundary:
		// every Update, Merge and Clone leaves it so (they halve until it
		// is), and UpdateColumns sizes its runs by the room left below it.
		r.Fail(errors.New("csss: bad Sketch sampling clock"))
		return
	}
	for c := range s.table {
		s.table[c][0] = int64(binary.LittleEndian.Uint64(b[16*c:]))
		s.table[c][1] = int64(binary.LittleEndian.Uint64(b[16*c+8:]))
		if s.table[c][0] < 0 || s.table[c][1] < 0 {
			r.Fail(errors.New("csss: negative sampled counter"))
			return
		}
	}
	s.t, s.p, s.haveLast = t, p, false
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
