package sparse

import (
	"encoding/binary"
	"errors"

	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/wire"
)

// Binary layout of a Recovery sketch: "SR" magic, capacity, universe,
// perTable, maxCount, the four hash functions, then the cells. The
// sketch is linear, so a client can ship its sketch of the old file
// state, have the server subtract it from a sketch of the new state,
// and decode exactly the changed coordinates — the paper's remote
// differential compression scenario end to end.

var errBadRecoveryData = errors.New("sparse: malformed Recovery data")

// MarshalBinary encodes the sketch including its hash functions.
func (r *Recovery) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (r *Recovery) EncodedLen() int {
	n := 26 + 4 + r.fp.EncodedLen() + 24*len(r.cells)
	for _, h := range r.hs {
		n += 4 + h.EncodedLen()
	}
	return n
}

// AppendBinary appends the sketch's encoding to dst.
func (r *Recovery) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.Grow(dst, r.EncodedLen())
	dst = append(dst, 'S', 'R')
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.capacity))
	dst = binary.LittleEndian.AppendUint64(dst, r.universe)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.perTable))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.maxCount))
	for _, h := range []*hash.KWise{r.hs[0], r.hs[1], r.hs[2], r.fp} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(h.EncodedLen()))
		dst, _ = h.AppendBinary(dst) // a KWise encoding cannot fail
	}
	at := len(dst)
	dst = dst[:at+24*len(r.cells)]
	for i, c := range r.cells {
		b := dst[at+24*i : at+24*i+24]
		binary.LittleEndian.PutUint64(b, uint64(c.count))
		binary.LittleEndian.PutUint64(b[8:], c.keySum)
		binary.LittleEndian.PutUint64(b[16:], c.fpSum)
	}
	return dst, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (r *Recovery) UnmarshalBinary(data []byte) error {
	if len(data) < 26 || data[0] != 'S' || data[1] != 'R' {
		return errBadRecoveryData
	}
	capacity := int(binary.LittleEndian.Uint32(data[2:]))
	universe := binary.LittleEndian.Uint64(data[6:])
	perTable := int(binary.LittleEndian.Uint32(data[14:]))
	maxCount := int64(binary.LittleEndian.Uint64(data[18:]))
	// The peel bound and the decode scratch are sized from the cell
	// count, so the two header fields must agree the way NewRecovery
	// makes them.
	if capacity < 1 || perTable != perTableFor(capacity) {
		return errBadRecoveryData
	}
	pos := 26
	var hashes [4]*hash.KWise
	for i := range hashes {
		if pos+4 > len(data) {
			return errBadRecoveryData
		}
		l := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if pos+l > len(data) {
			return errBadRecoveryData
		}
		h := &hash.KWise{}
		if err := h.UnmarshalBinary(data[pos : pos+l]); err != nil {
			return err
		}
		pos += l
		hashes[i] = h
	}
	nCells := subtables * perTable
	if len(data)-pos != nCells*24 {
		return errBadRecoveryData
	}
	cells := make([]cell, nCells)
	for i := range cells {
		b := data[pos+24*i : pos+24*i+24]
		cells[i].count = int64(binary.LittleEndian.Uint64(b))
		cells[i].keySum = binary.LittleEndian.Uint64(b[8:])
		cells[i].fpSum = binary.LittleEndian.Uint64(b[16:])
		// Every encoder writes reduced sums; the field adds and the
		// decode's division test assume them.
		if cells[i].keySum >= nt.MersennePrime61 || cells[i].fpSum >= nt.MersennePrime61 {
			return errBadRecoveryData
		}
	}
	r.capacity, r.universe, r.perTable = capacity, universe, perTable
	r.maxCount = maxCount
	r.hs = [subtables]*hash.KWise{hashes[0], hashes[1], hashes[2]}
	r.fp = hashes[3]
	r.cells = cells
	return nil
}

// SubRemote subtracts a serialized sibling sketch (one produced by a
// peer that deserialized this sketch's empty Sibling, or this sketch's
// own serialization) — the receive side of a file-sync exchange. The
// wirings must match.
func (r *Recovery) SubRemote(data []byte) error {
	remote := &Recovery{}
	if err := remote.UnmarshalBinary(data); err != nil {
		return err
	}
	if remote.perTable != r.perTable || remote.universe != r.universe {
		return errors.New("sparse: remote sketch has different dimensions")
	}
	// Verify hash equality by comparing serializations.
	for i := 0; i < subtables; i++ {
		a, _ := r.hs[i].MarshalBinary()
		b, _ := remote.hs[i].MarshalBinary()
		if string(a) != string(b) {
			return errors.New("sparse: remote sketch uses different hash functions")
		}
	}
	a, _ := r.fp.MarshalBinary()
	b, _ := remote.fp.MarshalBinary()
	if string(a) != string(b) {
		return errors.New("sparse: remote sketch uses different fingerprints")
	}
	remote.hs = r.hs // alias so combine's identity check passes
	r.Sub(remote)
	return nil
}
