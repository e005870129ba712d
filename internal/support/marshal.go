package support

import (
	"repro/internal/sample"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// Wire state of the Figure 8 support sampler: the rough-F0 tracker's
// state, the window's peak and each live level's sparse-recovery cells.
// The Params, the level hash and the hash-sharing sketch prototype
// (which never holds counts) are the constructor's.

// MarshalBinary encodes the sampler's state.
func (sp *Sampler) MarshalBinary() ([]byte, error) { return sp.AppendBinary(nil) }

// EncodedLen is the length of the sampler's encoding.
func (sp *Sampler) EncodedLen() int {
	var layouts [sample.NumSlots]wire.Layout
	return sp.levelLayouts(&layouts)
}

// levelLayouts stores each live level's count column layout, in level
// order, and returns the encoding's length at those layouts: the one
// scan of every level's counts that a marshal makes.
func (sp *Sampler) levelLayouts(layouts *[sample.NumSlots]wire.Layout) int {
	n, i := sp.rough.EncodedLen()+8, 0
	for _, lv := range sp.levels.Each {
		layouts[i] = lv.Layout()
		n += 4 + lv.LenAt(layouts[i])
		i++
	}
	return n
}

// StateLen is the least encoded length of a sampler built with params:
// its window holds only the levels no estimate drops (Figure 8's
// always-on top two), their counts one byte each. Every state of
// that shape holds it, and it is known before anything is allocated.
func (params Params) StateLen() int {
	return 8 + 8*roughCopies + 8 + alwaysOn*(4+sparse.StateLen(params.capacity()))
}

// AppendBinary appends the sampler's encoding to dst, growing it once
// by the length its live levels will take; each level's count column is
// scanned for its layout once, for that length, and written as it.
func (sp *Sampler) AppendBinary(dst []byte) ([]byte, error) {
	var layouts [sample.NumSlots]wire.Layout
	w := wire.State(wire.Grow(dst, sp.levelLayouts(&layouts)))
	w.Marshal(sp.rough)
	w.U32(uint32(sp.levels.Peak()))
	i := 0
	sp.levels.WriteLevels(w, func(lv *sparse.Recovery) {
		lv.Write(w, layouts[i])
		i++
	})
	return w.Bytes(), nil
}

// Fill restores the state into a sampler fresh from NewSampler with the
// encoder's Params (wire.Filler).
func (sp *Sampler) Fill(r *wire.Reader) {
	sp.rough.Fill(r)
	peak := int(r.U32())
	sp.levels.ReadLevels(r, peak, func(j int, lv *sparse.Recovery) *sparse.Recovery {
		if !r.Need(sparse.StateLen(sp.s)) {
			return nil
		}
		if lv == nil {
			lv = sp.newLevel(j)
		}
		lv.Fill(r)
		return lv
	})
}
