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
			n += e.levelLen(lv.layout())
		}
	}
	return n
}

// levelLen is one level's encoded length with its bins laid out as l:
// index, start and the bins' column.
func (e *Estimator) levelLen(l wire.Layout) int { return 12 + l.Len() }

// minLevelLen is the least encoded length of a level: one byte a bin.
func (e *Estimator) minLevelLen() int { return 12 + wire.MinColumnLen(e.params.Rows*e.params.K) }

// layout is the count column a level's bins pack as.
func (lv *ipLevel) layout() wire.Layout {
	var h wire.Widths
	for _, row := range lv.bins {
		for _, v := range row {
			h.Add(wire.Zigzag(v))
		}
	}
	return h.Layout()
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
			col, i := w.Column(lv.layout()), 0
			for _, row := range lv.bins {
				for _, v := range row {
					col.Put(i, wire.Zigzag(v))
					i++
				}
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
			if !r.Need(e.minLevelLen() - 4) {
				return nil
			}
			lv := e.newLevel(r.I64())
			col, ok := r.Column(e.params.Rows * e.params.K)
			if !ok {
				return nil
			}
			i := 0
			for _, row := range lv.bins {
				for j := range row {
					row[j] = wire.Unzigzag(col.Value(i))
					i++
				}
			}
			return lv
		})
	}
	e.rng = sample.Seeded(wire.Seed(r.Since(at)))
}
