package l0

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/wire"
)

// Wire layouts for the Section 6 structures. Every hash function and
// random multiplier vector travels with the counters, so a restored
// instance subsamples, perfect-hashes and bins identically to the
// original — the property that makes the modular bins addable across a
// marshal/unmarshal boundary.
const (
	exactSmallMagic = "0E"
	roughF0Magic    = "0F"
	roughL0Magic    = "0R"
	estimatorMagic  = "0M"
	formatV1        = 1
	// formatV2 is RoughL0's layout since its window follows the owner's
	// R_t: v1 embedded a RoughF0 after the level hash.
	formatV2 = 2
)

// The EncodedLen methods below give each structure's encoded length as
// a closed form of its dimensions; Estimator, the one that reaches a
// public envelope, grows its buffer by it once.

// MarshalBinary encodes the exact small-L0 structure.
func (e *ExactSmall) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// EncodedLen is the length of the structure's encoding.
func (e *ExactSmall) EncodedLen() int {
	return 3 + 25 + 4 + e.hash.EncodedLen() + 4 + 16*e.counters.n
}

// AppendBinary appends the structure's encoding to dst.
func (e *ExactSmall) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, exactSmallMagic, formatV1)
	w.U32(uint32(e.c))
	w.U64(e.buckets)
	w.U64(e.prime)
	w.Bool(e.overflow)
	w.U32(uint32(e.maxLive))
	if err := w.Marshal(e.hash); err != nil {
		return nil, err
	}
	keys := e.counters.buckets()
	w.U32(uint32(len(keys)))
	out := w.Extend(16 * len(keys))
	for i, b := range keys {
		binary.LittleEndian.PutUint64(out[16*i:], b)
		binary.LittleEndian.PutUint64(out[16*i+8:], e.counters.cells[e.counters.find(b)].count)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores an ExactSmall serialized by MarshalBinary.
// On failure the receiver is left unchanged.
func (e *ExactSmall) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, exactSmallMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("l0: unsupported ExactSmall format version")
	}
	c := int(rd.U32())
	buckets := rd.U64()
	prime := rd.U64()
	overflow := rd.Bool()
	maxLive := int(rd.U32())
	h := &hash.KWise{}
	rd.Unmarshal(h)
	n := int(rd.U32())
	if rd.Err() != nil {
		return rd.Err()
	}
	if c < 1 || buckets < 1 || prime < 2 {
		return errors.New("l0: bad ExactSmall parameters")
	}
	if n < 0 || n*16 > rd.Remaining() {
		return errors.New("l0: bad ExactSmall counter count")
	}
	if !overflow && n > c {
		return errors.New("l0: ExactSmall live set exceeds promise bound")
	}
	in := rd.Take(16 * n)
	// A latched structure keeps no counters: a list it carries (one
	// encoded before LARGE was a latch does) is checked, then dropped.
	var counters bucketTable
	if !overflow {
		counters = newBucketTable(n)
	}
	for i := 0; i < n; i++ {
		b := binary.LittleEndian.Uint64(in[16*i:])
		val := binary.LittleEndian.Uint64(in[16*i+8:])
		// The list is strictly ascending: a duplicate shows without a table.
		if b >= buckets || val == 0 || val >= prime || i > 0 && b <= binary.LittleEndian.Uint64(in[16*i-16:]) {
			return errors.New("l0: bad ExactSmall counter")
		}
		if !overflow {
			counters.cells[counters.find(b)] = bucketCell{bucket: b, count: val}
			counters.n++
		}
	}
	if err := rd.Done(); err != nil {
		return err
	}
	e.c, e.buckets, e.prime = c, buckets, prime
	e.hash = h
	e.counters = counters
	e.overflow, e.maxLive = overflow, maxLive
	return nil
}

// MarshalBinary encodes the rough F0 overestimator.
func (r *RoughF0) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// EncodedLen is the length of the overestimator's encoding.
func (r *RoughF0) EncodedLen() int {
	n := 3 + 20 + 4 + 8*len(r.bitmaps)
	for _, h := range r.hs {
		n += 4 + h.EncodedLen()
	}
	return n
}

// AppendBinary appends the overestimator's encoding to dst.
func (r *RoughF0) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, roughF0Magic, formatV1)
	w.I64(r.best)
	w.I64(r.safety)
	w.U32(uint32(len(r.hs)))
	for _, h := range r.hs {
		if err := w.Marshal(h); err != nil {
			return nil, err
		}
	}
	w.U64s(r.bitmaps)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a RoughF0 serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (r *RoughF0) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, roughF0Magic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("l0: unsupported RoughF0 format version")
	}
	best := rd.I64()
	safety := rd.I64()
	n := int(rd.U32())
	if rd.Err() != nil {
		return rd.Err()
	}
	// Each copy's hash takes at least its 4-byte length prefix, so the
	// copies sized below cost O(1) per byte of input.
	if best < 0 || safety < 1 || n < 1 || n > rd.Remaining()/4 {
		return errors.New("l0: bad RoughF0 shape")
	}
	hs := make([]*hash.KWise, n)
	for i := 0; i < n && rd.Err() == nil; i++ {
		hs[i] = &hash.KWise{}
		rd.Unmarshal(hs[i])
	}
	bitmaps := rd.U64s()
	if err := rd.Done(); err != nil {
		return err
	}
	if len(bitmaps) != n {
		return errors.New("l0: RoughF0 bitmap count disagrees with copies")
	}
	for _, bm := range bitmaps {
		// Field values stay below 2^61, so no update sets a level above
		// 60; current() indexes by the top level and relies on it.
		if bm>>61 != 0 {
			return errors.New("l0: RoughF0 level out of range")
		}
	}
	r.hs, r.bitmaps = hs, bitmaps
	r.best, r.safety = best, safety
	r.pending = make([]uint64, n)
	r.stale = r.current() > best
	return nil
}

// MarshalBinary encodes the constant-factor L0 estimator.
func (r *RoughL0) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// EncodedLen is the length of the estimator's encoding.
func (r *RoughL0) EncodedLen() int {
	n := 3 + 25 + 4 + r.h.EncodedLen() + 4 + 4 + 4*r.levels.ever.Len()
	for _, b := range r.levels.Each {
		n += 8 + b.EncodedLen()
	}
	return n
}

// AppendBinary appends the estimator's encoding to dst.
func (r *RoughL0) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, roughL0Magic, formatV2)
	w.U32(uint32(r.maxLevel))
	w.I64(r.levelSeed)
	w.Bool(r.windowed)
	w.U32(uint32(r.window))
	w.I64(r.levelFloor)
	if err := w.Marshal(r.h); err != nil {
		return nil, err
	}
	var err error
	r.levels.WriteLevels(w, func(b *ExactSmall) { err = errors.Join(err, w.Marshal(b)) })
	if err != nil {
		return nil, err
	}
	r.levels.WriteEver(w)
	return w.Bytes(), nil
}

// UnmarshalBinary restores a RoughL0 serialized by MarshalBinary, or by
// a v1 encoder: the RoughF0 a windowed v1 payload embeds is checked and
// dropped, and the restored window — unsynced, as every restored one —
// syncs at the owner's R_t on the next update. On failure the receiver
// is left unchanged.
func (r *RoughL0) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, roughL0Magic)
	if err != nil {
		return err
	}
	if v != formatV1 && v != formatV2 {
		return errors.New("l0: unsupported RoughL0 format version")
	}
	maxLevel := int(rd.U32())
	levelSeed := rd.I64()
	windowed := rd.Bool()
	window := int(rd.U32())
	levelFloor := rd.I64()
	h := &hash.KWise{}
	rd.Unmarshal(h)
	if windowed && v == formatV1 {
		rd.Unmarshal(&RoughF0{})
	}
	if rd.Err() != nil {
		return rd.Err()
	}
	if maxLevel < 0 || maxLevel > 64 || window < 0 {
		return errors.New("l0: bad RoughL0 shape")
	}
	levels := NewWindow[ExactSmall](maxLevel, windowed, 0, nil)
	if err := levels.ReadLevels(rd, 0, func() (*ExactSmall, error) {
		b := &ExactSmall{}
		rd.Unmarshal(b)
		return b, nil
	}); err != nil {
		return err
	}
	if err := levels.ReadEver(rd); err != nil {
		return err
	}
	if err := rd.Done(); err != nil {
		return err
	}
	r.maxLevel = maxLevel
	r.levels = levels
	r.h = h
	r.levelSeed = levelSeed
	r.windowed, r.window = windowed, window
	r.levelFloor = levelFloor
	return nil
}

// MarshalBinary encodes the (1 +- eps) balls-into-bins estimator.
func (e *Estimator) MarshalBinary() ([]byte, error) { return e.AppendBinary(nil) }

// EncodedLen is the length of the estimator's encoding.
func (e *Estimator) EncodedLen() int {
	n := 3 + 45 + 12 + 8*(len(e.u)+len(e.us)+len(e.singleRow)) +
		4 + e.final.EncodedLen() + 4 + e.small.EncodedLen() + 4 + e.rows.Len()*(8+8*e.k)
	for _, h := range []*hash.KWise{e.h1, e.h2, e.h3, e.h4, e.h2s, e.h3s, e.h4s} {
		n += 4 + h.EncodedLen()
	}
	if e.params.Windowed {
		n += 4 + e.rough.EncodedLen()
	}
	return n
}

// AppendBinary appends the estimator's encoding to dst.
func (e *Estimator) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, estimatorMagic, formatV1)
	w.Grow(e.EncodedLen())
	w.U64(e.params.N)
	w.F64(e.params.Eps)
	w.Bool(e.params.Windowed)
	w.U32(uint32(e.params.Window))
	w.U32(uint32(e.k))
	w.U64(e.p)
	w.I64(e.floorRow)
	w.U32(uint32(e.rows.Peak()))
	for _, h := range []*hash.KWise{e.h1, e.h2, e.h3, e.h4, e.h2s, e.h3s, e.h4s} {
		if err := w.Marshal(h); err != nil {
			return nil, err
		}
	}
	w.U64s(e.u)
	w.U64s(e.us)
	w.U64s(e.singleRow)
	if e.params.Windowed {
		if err := w.Marshal(e.rough); err != nil {
			return nil, err
		}
	}
	if err := w.Marshal(e.final); err != nil {
		return nil, err
	}
	if err := w.Marshal(e.small); err != nil {
		return nil, err
	}
	e.rows.WriteLevels(w, func(bins *[]uint64) { w.U64s(*bins) })
	return w.Bytes(), nil
}

// UnmarshalBinary restores an Estimator serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (e *Estimator) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, estimatorMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("l0: unsupported Estimator format version")
	}
	params := Params{
		N:        rd.U64(),
		Eps:      rd.F64(),
		Windowed: rd.Bool(),
		Window:   int(rd.U32()),
	}
	k := int(rd.U32())
	p := rd.U64()
	floorRow := rd.I64()
	maxLiveRows := int(rd.U32())
	if rd.Err() != nil {
		return rd.Err()
	}
	if params.N < 2 || !(params.Eps > 0 && params.Eps < 1) || k < 1 || p < 2 {
		return errors.New("l0: bad Estimator parameters")
	}
	hs := make([]*hash.KWise, 7)
	for i := range hs {
		hs[i] = &hash.KWise{}
		rd.Unmarshal(hs[i])
	}
	u := rd.U64s()
	us := rd.U64s()
	singleRow := rd.U64s()
	var rough *RoughF0
	if params.Windowed {
		rough = &RoughF0{}
		rd.Unmarshal(rough)
	}
	final := &RoughL0{}
	rd.Unmarshal(final)
	small := &ExactSmall{}
	rd.Unmarshal(small)
	if rd.Err() != nil {
		return rd.Err()
	}
	if len(u) != k || len(us) != 2*k || len(singleRow) != 2*k {
		return errors.New("l0: Estimator vector lengths disagree with k")
	}
	// The coalesced add skips a zero sum: a no-op only on a reduced bin.
	reduced := func(bins []uint64) bool { return !slices.ContainsFunc(bins, func(v uint64) bool { return v >= p }) }
	if !reduced(singleRow) {
		return errors.New("l0: Estimator bin not reduced mod p")
	}
	maxRow := nt.Log2Ceil(params.N)
	rows := NewWindow[[]uint64](maxRow, params.Windowed, 0, &rowStats)
	if err := rows.ReadLevels(rd, maxLiveRows, func() (*[]uint64, error) {
		bins := rd.U64s()
		if len(bins) != k || !reduced(bins) {
			return nil, errors.New("l0: bad Estimator row")
		}
		return &bins, nil
	}); err != nil {
		return err
	}
	if err := rd.Done(); err != nil {
		return err
	}
	*e = Estimator{
		params:    params,
		k:         k,
		maxRow:    maxRow,
		p:         p,
		h1:        hs[0],
		h2:        hs[1],
		h3:        hs[2],
		h4:        hs[3],
		u:         u,
		rows:      rows,
		rough:     rough,
		floorRow:  floorRow,
		final:     final,
		small:     small,
		singleRow: singleRow,
		h2s:       hs[4],
		h3s:       hs[5],
		h4s:       hs[6],
		us:        us,
	}
	return nil
}
