package inner

import (
	"errors"

	"repro/internal/hash"
	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire layout of the inner-product estimator: Params, the shared random
// prime, the per-row bucket/sign hashes, then both stream sides (each a
// position counter plus the live interval-sampled levels). The restored
// instance reseeds its sampling rng from the payload; bins are exact.
const (
	estimatorMagic = "IP"
	formatV1       = 1
)

// MarshalBinary encodes the estimator.
func (e *Estimator) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// AppendBinary appends the estimator's encoding to dst, growing it
// once by the length its hashes and live levels will take.
func (e *Estimator) AppendBinary(dst []byte) ([]byte, error) {
	size := 3 + 40
	for r := range e.hb {
		size += 4 + e.hb[r].EncodedLen() + 4 + e.hs[r].EncodedLen()
	}
	for _, sd := range []*side{e.f, e.g} {
		size += 20 + sd.win.Len()*(16+e.params.Rows*(4+8*e.params.K))
	}
	w := wire.Append(dst, estimatorMagic, formatV1)
	w.Grow(size)
	w.U64(e.params.N)
	w.F64(e.params.Eps)
	w.I64(e.params.Base)
	w.U32(uint32(e.params.K))
	w.U32(uint32(e.params.Rows))
	w.U64(e.prime)
	for r := range e.hb {
		if err := w.Marshal(e.hb[r]); err != nil {
			return nil, err
		}
		if err := w.Marshal(e.hs[r]); err != nil {
			return nil, err
		}
	}
	for _, sd := range []*side{e.f, e.g} {
		w.I64(sd.t)
		w.I64(sd.maxCount)
		sd.win.WriteLevels(w, func(lv *ipLevel) {
			w.I64(lv.start)
			w.U32(uint32(len(lv.bins)))
			for r := range lv.bins {
				w.I64s(lv.bins[r])
			}
		})
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores an estimator serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (e *Estimator) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, estimatorMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("inner: unsupported Estimator format version")
	}
	params := Params{
		N:    rd.U64(),
		Eps:  rd.F64(),
		Base: rd.I64(),
		K:    int(rd.U32()),
		Rows: int(rd.U32()),
	}
	prime := rd.U64()
	if rd.Err() != nil {
		return rd.Err()
	}
	// Every row ships two hashes, so the payload bounds the row count.
	if !(params.Eps > 0 && params.Eps < 1) || params.Base < 4 ||
		params.K < 1 || params.Rows < 1 || params.Rows > rd.Remaining() || prime < 2 {
		return errors.New("inner: bad Estimator parameters")
	}
	hb := make([]*hash.KWise, params.Rows)
	hs := make([]*hash.KWise, params.Rows)
	for r := range hb {
		hb[r] = &hash.KWise{}
		rd.Unmarshal(hb[r])
		hs[r] = &hash.KWise{}
		rd.Unmarshal(hs[r])
	}
	f, err2 := unmarshalSide(rd, params)
	if err2 != nil {
		return err2
	}
	g, err2 := unmarshalSide(rd, params)
	if err2 != nil {
		return err2
	}
	if err := rd.Done(); err != nil {
		return err
	}
	e.params = params
	e.prime = prime
	e.hb, e.hs = hb, hs
	e.f, e.g = f, g
	e.rng = sample.Seeded(wire.Seed(data))
	return nil
}

func unmarshalSide(rd *wire.Reader, params Params) (*side, error) {
	t := rd.I64()
	maxCount := rd.I64()
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if t < 0 {
		return nil, errors.New("inner: bad side position")
	}
	win, err := sample.ReadLevels(rd, params.Base, func() (*ipLevel, error) {
		start := rd.I64()
		nRows := int(rd.U32())
		if rd.Err() != nil || nRows != params.Rows {
			return nil, errors.New("inner: bad side level")
		}
		lv := &ipLevel{start: start, bins: make([][]int64, nRows)}
		for r := range lv.bins {
			lv.bins[r] = rd.I64s()
			if len(lv.bins[r]) != params.K {
				return nil, errors.New("inner: bad side bins")
			}
		}
		return lv, nil
	})
	if err != nil {
		return nil, err
	}
	return &side{t: t, maxCount: maxCount, win: win}, nil
}
