package inner

import (
	"errors"

	"repro/internal/sample"
	"repro/internal/wire"
)

// Wire state of the inner-product estimator: both stream sides, each a
// position counter, maxCount and the live interval-sampled levels —
// each its start and its bins, zigzagged and packed at the byte width
// of their OR behind the width byte. The Params, the shared random
// prime and the per-row bucket/sign hashes are the constructor's. The
// restored instance reseeds its sampling rng from the state; bins are
// exact.

// MarshalBinary encodes the estimator's state.
func (e *Estimator) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// EncodedLen is the length of the estimator's encoding.
func (e *Estimator) EncodedLen() int {
	n := 40
	for _, sd := range []*side{e.f, e.g} {
		for _, lv := range sd.win.Each {
			n += e.levelLen(lv.width())
		}
	}
	return n
}

// levelLen is one level's encoded length with its bins at width:
// index, start, the width byte and the bins.
func (e *Estimator) levelLen(width int) int { return 13 + width*e.params.Rows*e.params.K }

// width is the byte width a level's bins pack at.
func (lv *ipLevel) width() int {
	var or uint64
	for _, row := range lv.bins {
		for _, v := range row {
			or |= wire.Zigzag(v)
		}
	}
	return wire.ByteWidth(or)
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
			width := lv.width()
			w.U8(uint8(width))
			col, i := w.Column(e.params.Rows*e.params.K, width), 0
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
			if !r.Need(e.levelLen(1) - 4) {
				return nil
			}
			lv := e.newLevel(r.I64())
			col, ok := r.Column(e.params.Rows*e.params.K, int(r.U8()))
			if !ok {
				return nil
			}
			i := 0
			for _, row := range lv.bins {
				for j := range row {
					row[j] = wire.Unzigzag(col.At(i))
					i++
				}
			}
			return lv
		})
	}
	e.rng = sample.Seeded(wire.Seed(r.Since(at)))
}
