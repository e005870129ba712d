package support

import (
	"errors"

	"repro/internal/hash"
	"repro/internal/l0"
	"repro/internal/nt"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// Wire layout of the Figure 8 support sampler: Params (every field —
// merge compatibility compares them), the level hash, the rough-F0
// tracker, the hash-sharing sparse-recovery prototype, and each live
// level's sketch; counters and hash wirings are exact.
const (
	samplerMagic = "SS"
	formatV1     = 1
)

// MarshalBinary encodes the sampler.
func (sp *Sampler) MarshalBinary() ([]byte, error) { return sp.AppendBinary(nil) }

// AppendBinary appends the sampler's encoding to dst, growing it once
// by the length its components will take.
func (sp *Sampler) AppendBinary(dst []byte) ([]byte, error) {
	size := 3 + 29 + 4 + sp.h.EncodedLen() + 4 + sp.rough.EncodedLen() + 4 + sp.proto.EncodedLen() + 4
	for _, lv := range sp.levels.Each {
		size += 8 + lv.EncodedLen()
	}
	w := wire.Append(dst, samplerMagic, formatV1)
	w.Grow(size)
	w.U64(sp.params.N)
	w.U32(uint32(sp.params.K))
	w.U32(uint32(sp.params.SparsityFactor))
	w.Bool(sp.params.Windowed)
	w.U32(uint32(sp.params.Window))
	w.U32(uint32(sp.s))
	w.U32(uint32(sp.levels.Peak()))
	if err := w.Marshal(sp.h); err != nil {
		return nil, err
	}
	if err := w.Marshal(sp.rough); err != nil {
		return nil, err
	}
	if err := w.Marshal(sp.proto); err != nil {
		return nil, err
	}
	var err error
	sp.levels.WriteLevels(w, func(lv *sparse.Recovery) { err = errors.Join(err, w.Marshal(lv)) })
	if err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sampler serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (sp *Sampler) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, samplerMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("support: unsupported Sampler format version")
	}
	params := Params{
		N:              rd.U64(),
		K:              int(rd.U32()),
		SparsityFactor: int(rd.U32()),
		Windowed:       rd.Bool(),
		Window:         int(rd.U32()),
	}
	s := int(rd.U32())
	maxLiveLevels := int(rd.U32())
	if rd.Err() != nil {
		return rd.Err()
	}
	if params.N < 2 || params.K < 1 || s < 1 {
		return errors.New("support: bad Sampler parameters")
	}
	h := &hash.KWise{}
	rd.Unmarshal(h)
	rough := &l0.RoughF0{}
	rd.Unmarshal(rough)
	proto := &sparse.Recovery{}
	rd.Unmarshal(proto)
	if rd.Err() != nil {
		return rd.Err()
	}
	maxLevel := nt.Log2Ceil(params.N)
	levels := l0.NewWindow[sparse.Recovery](maxLevel, params.Windowed, alwaysOn, &levelStats)
	if err := levels.ReadLevels(rd, maxLiveLevels, func() (*sparse.Recovery, error) {
		lv := &sparse.Recovery{}
		rd.Unmarshal(lv)
		// Every level sketch must share the prototype's wiring, the
		// invariant Merge and Recover rely on.
		if rd.Err() == nil && proto.Compatible(lv) != nil {
			return nil, errors.New("support: level sketch wiring disagrees with prototype")
		}
		return lv, nil
	}); err != nil {
		return err
	}
	if err := rd.Done(); err != nil {
		return err
	}
	sp.params = params
	sp.s = s
	sp.maxLevel = maxLevel
	sp.h = h
	sp.rough = rough
	sp.levels = levels
	sp.proto = proto
	return nil
}
