package l1

import (
	"errors"

	"repro/internal/morris"
	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of the Figure 4 estimator: the clock (a Morris counter's
// (v, max), or an exact position written twice — which one is the
// constructor's), maxCount, units and the live (c+, c-) pairs per
// level. The interval base is the constructor's. The restored instance
// reseeds its binomial-thinning rng deterministically from the state.

// MarshalBinary encodes the estimator's state.
func (a *AlphaEstimator) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// AppendBinary appends the estimator's encoding to dst.
func (a *AlphaEstimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(dst)
	if c := a.clock; c.m != nil {
		v, max := c.m.State()
		w.U8(v)
		w.U8(max)
	} else {
		w.I64(c.t)
		w.I64(c.t)
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
	c := &a.clock
	if c.m != nil {
		v, max = r.U8(), r.U8()
		if v > 63 || max > 63 || v > max {
			r.Fail(errors.New("l1: bad Morris clock state"))
		}
	} else if c.t = r.I64(); r.I64() < c.t || c.t < 0 {
		r.Fail(errors.New("l1: bad exact clock state"))
	}
	if a.maxCount, a.units = r.I64(), r.I64(); a.maxCount < 0 || a.units < 0 {
		r.Fail(errors.New("l1: negative maxCount or unit count"))
	}
	a.win.ReadLevels(r, func(int) *level {
		lv := &level{pos: r.I64(), neg: r.I64()}
		if lv.pos < 0 || lv.neg < 0 {
			r.Fail(errors.New("l1: bad level counters"))
		}
		return lv
	})
	a.sample(0, 0) // raises a stale maxCount to the counters
	a.rng = sample.Seeded(wire.Seed(r.Since(at)))
	if c.m != nil {
		c.m = morris.Restore(a.rng, v, max)
	}
}
