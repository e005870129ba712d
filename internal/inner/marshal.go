package inner

import (
	"errors"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of the inner-product estimator: both stream sides, each a
// position counter, maxCount and the live interval-sampled levels —
// each its start and its bins, zigzagged into one count column (packed
// at the width most bins need, the few wide ones patched in). The
// Params, the shared random prime and the per-row bucket/sign hashes
// are the constructor's. The restored instance reseeds its sampling rng
// from the state; bins are exact.

// MarshalBinary encodes the estimator's state.
func (e *Estimator) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// EncodedLen is the length of the estimator's encoding.
func (e *Estimator) EncodedLen() int {
	n := 40
	for _, sd := range []*side{e.f, e.g} {
		for _, lv := range sd.win.Each {
			n += 12 + wire.LayoutOf(lv.bins).Len() // index, start and the bins' column
		}
	}
	return n
}

// AppendBinary appends the estimator's encoding to dst, growing it
// once by the length its live levels will take.
func (e *Estimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, e.EncodedLen()))
	for _, sd := range []*side{e.f, e.g} {
		w.I64(sd.t)
		w.I64(sd.maxCount)
		sd.win.WriteLevels(w, func(lv *ipLevel) {
			w.I64(lv.start)
			wire.WriteCounts(w, lv.bins, wire.LayoutOf(lv.bins))
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
			// The start and the bins, one byte a bin at the least.
			if !r.Need(8 + wire.MinColumnLen(e.params.Rows*e.params.K)) {
				return nil
			}
			lv := e.newLevel(r.I64())
			if wire.ReadCounts(r, lv.bins); r.Err() != nil {
				return nil
			}
			return lv
		})
	}
	e.rng = sample.Seeded(wire.Seed(r.Since(at)))
}
