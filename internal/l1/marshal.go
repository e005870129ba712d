package l1

import (
	"errors"

	"repro/internal/morris"
	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire layout of the Figure 4 estimator: interval base, the clock (a
// tagged union: Morris counter or exact position counter), and the live
// (c+, c-) pairs per level. The restored instance reseeds its binomial-
// thinning rng deterministically from the payload; counters are exact.
const (
	estimatorMagic = "L1"
	formatV1       = 1

	clockMorris = 0
	clockExact  = 1
)

// MarshalBinary encodes the estimator.
func (a *AlphaEstimator) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// AppendBinary appends the estimator's encoding to dst.
func (a *AlphaEstimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, estimatorMagic, formatV1)
	w.I64(a.base)
	switch c := a.clock.(type) {
	case morrisClock:
		v, max := c.c.State()
		w.U8(clockMorris)
		w.U8(v)
		w.U8(max)
	case *exactClock:
		w.U8(clockExact)
		w.I64(c.t)
		w.I64(c.max)
	default:
		return nil, errors.New("l1: unknown clock implementation")
	}
	w.I64(a.maxCount)
	w.I64(a.units)
	a.win.WriteLevels(w, func(lv *level) {
		w.I64(lv.pos)
		w.I64(lv.neg)
	})
	return w.Bytes(), nil
}

// UnmarshalBinary restores an estimator serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (a *AlphaEstimator) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, estimatorMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("l1: unsupported AlphaEstimator format version")
	}
	base := rd.I64()
	rng := sample.Seeded(wire.Seed(data))
	var clock Clock
	switch tag := rd.U8(); tag {
	case clockMorris:
		mv := rd.U8()
		mmax := rd.U8()
		if mv > 63 || mmax > 63 || mv > mmax {
			return errors.New("l1: bad Morris clock state")
		}
		clock = morrisClock{morris.Restore(rng, mv, mmax)}
	case clockExact:
		t := rd.I64()
		max := rd.I64()
		if t < 0 || max < t {
			return errors.New("l1: bad exact clock state")
		}
		clock = &exactClock{t: t, max: max}
	default:
		if rd.Err() != nil {
			return rd.Err()
		}
		return errors.New("l1: unknown clock tag")
	}
	maxCount := rd.I64()
	units := rd.I64()
	if rd.Err() != nil {
		return rd.Err()
	}
	if base < 4 {
		return errors.New("l1: bad interval base")
	}
	win, err := sample.ReadLevels(rd, base, func() (*level, error) {
		lv := &level{pos: rd.I64(), neg: rd.I64()}
		if lv.pos < 0 || lv.neg < 0 {
			return nil, errors.New("l1: bad level counters")
		}
		return lv, nil
	})
	if err != nil {
		return err
	}
	if err := rd.Done(); err != nil {
		return err
	}
	a.base = base
	a.clock = clock
	a.win = win
	a.rng = rng
	a.maxCount = maxCount
	a.units = units
	return nil
}
