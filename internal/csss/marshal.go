package csss

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/hash"
	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire layout of a CSSampSim sketch: the Figure 2 parameters, the hash
// wiring, the sampling clock (t, p), and the positive/negative counter
// pairs. scale, estScale, nextHalf and fpUnit are pure functions of
// (params, p) and are rederived on restore; the per-update scratch and
// the row-hash memo are rebuilt empty. The restored instance reseeds its
// thinning rng deterministically from the payload — counters are exact,
// the rng only drives future halvings and sampling decisions, so any
// fixed reseed preserves Theorem 1's guarantees.
const (
	sketchMagic        = "XS"
	tailEstimatorMagic = "XT"
	formatV1           = 1
)

// MarshalBinary encodes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (s *Sketch) EncodedLen() int {
	return 3 + 20 + 4 + s.buckets.EncodedLen() + 24 + 16*len(s.table)
}

// AppendBinary appends the sketch's encoding to dst.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, sketchMagic, formatV1)
	w.Grow(s.EncodedLen())
	w.U32(uint32(s.params.Rows))
	w.U32(uint32(s.params.K))
	w.I64(s.params.S)
	w.U32(uint32(s.params.FixedPointBits))
	if err := w.Marshal(s.buckets); err != nil {
		return nil, err
	}
	w.I64(s.t)
	w.U32(uint32(s.p))
	w.I64(s.maxCount)
	w.U32(uint32(len(s.table)))
	b := w.Extend(16 * len(s.table))
	for c := range s.table {
		binary.LittleEndian.PutUint64(b[16*c:], uint64(s.table[c][0]))
		binary.LittleEndian.PutUint64(b[16*c+8:], uint64(s.table[c][1]))
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, sketchMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("csss: unsupported Sketch format version")
	}
	params := Params{
		Rows:           int(rd.U32()),
		K:              int(rd.U32()),
		S:              rd.I64(),
		FixedPointBits: uint(rd.U32()),
	}
	buckets := &hash.Buckets{}
	rd.Unmarshal(buckets)
	t := rd.I64()
	p := int(rd.U32())
	maxCount := rd.I64()
	nCells := int(rd.U32())
	if rd.Err() != nil {
		return rd.Err()
	}
	if params.Rows < 1 || params.K < 1 || params.S < 1 || params.FixedPointBits > 42 {
		return errors.New("csss: bad Sketch parameters")
	}
	if p < 0 || p > 60 || t < 0 || params.S > int64(1)<<(61-uint(p)) || t > params.S<<uint(p+1) {
		// The S clause keeps the rederived halving boundary S*2^(p+1)+1
		// inside int64. The last clause keeps t short of that boundary:
		// every Update, Merge and Clone leaves it so (they halve until it
		// is), and UpdateColumns sizes its runs by the room left below it.
		return errors.New("csss: bad Sketch sampling clock")
	}
	cols := uint64(6 * params.K)
	if buckets.Rows != params.Rows || buckets.Cols != cols {
		return errors.New("csss: hash wiring disagrees with parameters")
	}
	if uint64(nCells) != uint64(params.Rows)*cols || nCells*16 > rd.Remaining() {
		return errors.New("csss: bad Sketch cell count")
	}
	b := rd.Take(16 * nCells)
	if err := rd.Done(); err != nil {
		return err
	}
	table := make([]cell, nCells)
	for c := range table {
		table[c][0] = int64(binary.LittleEndian.Uint64(b[16*c:]))
		table[c][1] = int64(binary.LittleEndian.Uint64(b[16*c+8:]))
		if table[c][0] < 0 || table[c][1] < 0 {
			return errors.New("csss: negative sampled counter")
		}
	}
	restored := &Sketch{
		params:   params,
		buckets:  buckets,
		rows:     params.Rows,
		cols:     cols,
		table:    table,
		rng:      sample.Seeded(wire.Seed(data)),
		t:        t,
		p:        p,
		maxCount: maxCount,
		fpUnit:   1 << params.FixedPointBits,
	}
	restored.withScratch()
	restored.scale = math.Ldexp(1, p)
	restored.estScale = restored.scale / float64(restored.fpUnit)
	// nextHalf follows the S*2^r + 1 schedule: r = p+1 boundaries passed.
	restored.nextHalf = params.S<<uint(p+1) + 1
	*s = *restored
	sampleExponent.Set(int64(p))
	return nil
}

// MarshalBinary encodes the two-instance Lemma 5 tail estimator.
func (te *TailEstimator) MarshalBinary() ([]byte, error) { return te.AppendBinary(nil) }

// EncodedLen is the length of the tail estimator's encoding.
func (te *TailEstimator) EncodedLen() int {
	return 3 + 4 + 4 + te.CS1.EncodedLen() + 4 + te.CS2.EncodedLen()
}

// AppendBinary appends the tail estimator's encoding to dst.
func (te *TailEstimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, tailEstimatorMagic, formatV1)
	w.Grow(te.EncodedLen())
	w.U32(uint32(te.k))
	if err := w.Marshal(te.CS1); err != nil {
		return nil, err
	}
	if err := w.Marshal(te.CS2); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a tail estimator serialized by MarshalBinary.
// On failure the receiver is left unchanged.
func (te *TailEstimator) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, tailEstimatorMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("csss: unsupported TailEstimator format version")
	}
	k := int(rd.U32())
	cs1, cs2 := &Sketch{}, &Sketch{}
	rd.Unmarshal(cs1)
	rd.Unmarshal(cs2)
	if err := rd.Done(); err != nil {
		return err
	}
	if k < 1 || cs1.params.K != k || cs2.params.K != k {
		return errors.New("csss: TailEstimator k disagrees with instances")
	}
	te.CS1, te.CS2, te.k = cs1, cs2, k
	return nil
}
