package inner

import (
	"errors"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of the inner-product estimator: both stream sides, each a
// position counter, maxCount and the live interval-sampled levels. The
// Params, the shared random prime and the per-row bucket/sign hashes
// are the constructor's. The restored instance reseeds its sampling rng
// from the state; bins are exact.

// MarshalBinary encodes the estimator's state.
func (e *Estimator) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// EncodedLen is the length of the estimator's encoding.
func (e *Estimator) EncodedLen() int {
	return 40 + (e.f.win.Len()+e.g.win.Len())*e.levelLen()
}

// levelLen is one level's encoded length: index, start and the bins.
func (e *Estimator) levelLen() int { return 12 + 8*e.params.Rows*e.params.K }

// AppendBinary appends the estimator's encoding to dst, growing it
// once by the length its live levels will take.
func (e *Estimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, e.EncodedLen()))
	for _, sd := range []*side{e.f, e.g} {
		w.I64(sd.t)
		w.I64(sd.maxCount)
		sd.win.WriteLevels(w, func(lv *ipLevel) {
			w.I64(lv.start)
			for r := range lv.bins {
				w.FixedI64s(lv.bins[r])
			}
		})
	}
	return w.Bytes(), nil
}

// Fill restores the state into an estimator fresh from New with the
// encoder's Params (wire.Filler).
func (e *Estimator) Fill(r *wire.Reader) {
	at := r.Offset()
	for _, sd := range []*side{e.f, e.g} {
		sd.t, sd.maxCount = r.I64(), r.I64()
		if r.Err() == nil && sd.t < 0 {
			r.Fail(errors.New("inner: bad side position"))
		}
		sd.win.ReadLevels(r, func(int) *ipLevel {
			if !r.Need(e.levelLen() - 4) {
				return nil
			}
			lv := e.newLevel(r.I64())
			for _, bins := range lv.bins {
				r.FixedI64s(bins)
			}
			return lv
		})
	}
	e.rng = sample.Seeded(wire.Seed(r.Since(at)))
}
