package l0

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/wire"
)

// Wire states of the Section 6 structures. Every hash function, prime
// and random multiplier vector is the constructor's — a RoughL0's level
// wirings are pure functions of its level seed — so a receiver built
// from the same seed subsamples, perfect-hashes and bins identically to
// the sender, which is what makes the modular bins addable across a
// marshal/unmarshal boundary. Only counters, bitmaps and live levels
// travel.

// MarshalBinary encodes the exact small-L0 structure's state.
func (e *ExactSmall) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// EncodedLen is the length of the structure's encoding: the latch, the
// live peak and the (bucket, counter) list.
func (e *ExactSmall) EncodedLen() int { return 9 + 16*e.counters.n }

// AppendBinary appends the structure's encoding to dst: a latched
// structure lists no counters.
func (e *ExactSmall) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(dst)
	w.Bool(e.overflow)
	w.U32(uint32(e.maxLive))
	keys := e.counters.buckets()
	w.U32(uint32(len(keys)))
	out := w.Extend(16 * len(keys))
	for i, b := range keys {
		binary.LittleEndian.PutUint64(out[16*i:], b)
		binary.LittleEndian.PutUint64(out[16*i+8:], e.counters.cells[e.counters.find(b)].count)
	}
	return w.Bytes(), nil
}

// Fill restores the state into a structure fresh from NewExactSmall
// with the encoder's promise bound (wire.Filler).
func (e *ExactSmall) Fill(r *wire.Reader) {
	e.overflow = r.Bool()
	e.maxLive = int(r.U32())
	limit := e.c
	if e.overflow {
		limit = 0
	}
	n := r.Count(16, limit)
	in := r.Take(16 * n)
	if r.Err() != nil {
		return
	}
	e.counters = bucketTable{}
	if !e.overflow {
		e.counters = newBucketTable(n)
	}
	for i := 0; i < n; i++ {
		b := binary.LittleEndian.Uint64(in[16*i:])
		val := binary.LittleEndian.Uint64(in[16*i+8:])
		// The list is strictly ascending: a duplicate shows without a table.
		if b >= e.buckets || val == 0 || val >= e.prime || i > 0 && b <= binary.LittleEndian.Uint64(in[16*i-16:]) {
			r.Fail(errors.New("l0: bad ExactSmall counter"))
			return
		}
		e.counters.cells[e.counters.find(b)] = bucketCell{bucket: b, count: val}
		e.counters.n++
	}
}

// MarshalBinary encodes the rough F0 overestimator's state.
func (r *RoughF0) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// EncodedLen is the length of the overestimator's encoding.
func (r *RoughF0) EncodedLen() int { return roughF0StateLen(len(r.bitmaps)) }

func roughF0StateLen(copies int) int { return 8 + 8*copies }

// AppendBinary appends the overestimator's encoding to dst.
func (r *RoughF0) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(dst)
	w.I64(r.best)
	w.FixedU64s(r.bitmaps)
	return w.Bytes(), nil
}

// Fill restores the state into an overestimator fresh from NewRoughF0
// with the encoder's copy count (wire.Filler).
func (r *RoughF0) Fill(rd *wire.Reader) {
	r.best = rd.I64()
	rd.FixedU64s(r.bitmaps)
	if r.best < 0 {
		rd.Fail(errors.New("l0: negative RoughF0 estimate"))
	}
	for _, bm := range r.bitmaps {
		// Field values stay below 2^61, so no update sets a level above
		// 60; current() indexes by the top level and relies on it.
		if bm>>61 != 0 {
			rd.Fail(errors.New("l0: RoughF0 level out of range"))
			return
		}
	}
	r.stale = rd.Err() == nil && r.current() > r.best
}

// MarshalBinary encodes the constant-factor L0 estimator's state.
func (r *RoughL0) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// EncodedLen is the length of the estimator's encoding.
func (r *RoughL0) EncodedLen() int {
	n := 8 + 4*(r.levels.Len()+r.levels.ever.Len())
	for _, b := range r.levels.Each {
		n += b.EncodedLen()
	}
	return n
}

// AppendBinary appends the estimator's encoding to dst: the live
// levels, then the levels ever instantiated.
func (r *RoughL0) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(dst)
	r.levels.WriteLevels(w, func(b *ExactSmall) { w.Marshal(b) })
	r.levels.WriteEver(w)
	return w.Bytes(), nil
}

// Fill restores the state into an estimator fresh from its constructor
// with the encoder's parameters (wire.Filler). The restored window —
// unsynced, as every restored one — syncs at the owner's R_t on the
// next update.
func (r *RoughL0) Fill(rd *wire.Reader) {
	r.levels.ReadLevels(rd, 0, func(j int, b *ExactSmall) *ExactSmall {
		if b == nil {
			b = r.newLevel(j)
		}
		b.Fill(rd)
		return b
	})
	r.levels.ReadEver(rd)
}

// MarshalBinary encodes the (1 +- eps) balls-into-bins estimator's
// state.
func (e *Estimator) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// EncodedLen is the length of the estimator's encoding.
func (e *Estimator) EncodedLen() int {
	n := 4 + 8*len(e.singleRow) + e.final.EncodedLen() + e.small.EncodedLen() + 4 + e.rows.Len()*(4+8*e.k)
	if e.params.Windowed {
		n += e.rough.EncodedLen()
	}
	return n
}

// StateLen is the encoded length of an Estimator built with params
// that holds no rows, levels or small counters: the dense part every
// state of that shape holds, known before anything is allocated.
func (params Params) StateLen() int {
	n := 4 + 16*binsPerRow(params.Eps) + 8 + 9 + 4
	if params.Windowed {
		n += roughF0StateLen(roughCopies)
	}
	return n
}

// AppendBinary appends the estimator's encoding to dst.
func (e *Estimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, e.EncodedLen()))
	w.U32(uint32(e.rows.Peak()))
	w.FixedU64s(e.singleRow)
	if e.params.Windowed {
		w.Marshal(e.rough)
	}
	w.Marshal(e.final)
	w.Marshal(e.small)
	e.rows.WriteLevels(w, func(bins *[]uint64) { w.FixedU64s(*bins) })
	return w.Bytes(), nil
}

// Fill restores the state into an estimator fresh from NewEstimator
// with the encoder's Params (wire.Filler).
func (e *Estimator) Fill(r *wire.Reader) {
	peak := int(r.U32())
	r.FixedU64s(e.singleRow)
	// The coalesced add skips a zero sum: a no-op only on a reduced bin.
	reduced := func(bins []uint64) {
		if slices.ContainsFunc(bins, func(v uint64) bool { return v >= e.p }) {
			r.Fail(errors.New("l0: Estimator bin not reduced mod p"))
		}
	}
	reduced(e.singleRow)
	if e.params.Windowed {
		e.rough.Fill(r)
	}
	e.final.Fill(r)
	e.small.Fill(r)
	e.rows.ReadLevels(r, peak, func(j int, bins *[]uint64) *[]uint64 {
		if !r.Need(8 * e.k) {
			return nil
		}
		if bins == nil {
			bins = e.newRow(j)
		}
		r.FixedU64s(*bins)
		reduced(*bins)
		return bins
	})
}
