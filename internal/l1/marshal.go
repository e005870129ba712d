package l1

import (
	"errors"

	"repro/internal/morris"
	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of the Figure 4 estimator: the clock (a Morris counter's
// (v, max), or an exact position counter's (t, max) — which one is the
// constructor's), maxCount, units and the live (c+, c-) pairs per
// level. The interval base is the constructor's. The restored instance
// reseeds its binomial-thinning rng deterministically from the state;
// counters are exact.

// MarshalBinary encodes the estimator's state.
func (a *AlphaEstimator) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// AppendBinary appends the estimator's encoding to dst.
func (a *AlphaEstimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(dst)
	switch c := a.clock.(type) {
	case morrisClock:
		v, max := c.c.State()
		w.U8(v)
		w.U8(max)
	case *exactClock:
		w.I64(c.t)
		w.I64(c.max)
	}
	w.I64(a.maxCount)
	w.I64(a.units)
	a.win.WriteLevels(w, func(lv *level) {
		w.I64(lv.pos)
		w.I64(lv.neg)
	})
	return w.Bytes(), nil
}

// Fill restores the state into an estimator fresh from New (or
// NewExactClock) with the encoder's base (wire.Filler).
func (a *AlphaEstimator) Fill(r *wire.Reader) {
	at := r.Offset()
	var v, max uint8
	switch c := a.clock.(type) {
	case morrisClock:
		v, max = r.U8(), r.U8()
		if v > 63 || max > 63 || v > max {
			r.Fail(errors.New("l1: bad Morris clock state"))
		}
	case *exactClock:
		c.t, c.max = r.I64(), r.I64()
		if c.t < 0 || c.max < c.t {
			r.Fail(errors.New("l1: bad exact clock state"))
		}
	}
	a.maxCount, a.units = r.I64(), r.I64()
	a.win.ReadLevels(r, func(int) *level {
		lv := &level{pos: r.I64(), neg: r.I64()}
		if lv.pos < 0 || lv.neg < 0 {
			r.Fail(errors.New("l1: bad level counters"))
		}
		return lv
	})
	a.rng = sample.Seeded(wire.Seed(r.Since(at)))
	if _, ok := a.clock.(morrisClock); ok {
		a.clock = morrisClock{morris.Restore(a.rng, v, max)}
	}
}
