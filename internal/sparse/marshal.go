package sparse

import (
	"encoding/binary"
	"errors"

	"repro/internal/hash"
	"repro/internal/nt"
)

// Binary layout of a Recovery sketch: "SR" magic, capacity, universe,
// perTable, maxCount, the four hash functions, then the cells. The
// sketch is linear, so a client can ship its sketch of the old file
// state, have the server subtract it from a sketch of the new state,
// and decode exactly the changed coordinates — the paper's remote
// differential compression scenario end to end.

var errBadRecoveryData = errors.New("sparse: malformed Recovery data")

// MarshalBinary encodes the sketch including its hash functions.
func (r *Recovery) MarshalBinary() ([]byte, error) {
	var hashes [][]byte
	for _, h := range []*hash.KWise{r.hs[0], r.hs[1], r.hs[2], r.fp} {
		enc, err := h.MarshalBinary()
		if err != nil {
			return nil, err
		}
		hashes = append(hashes, enc)
	}
	buf := make([]byte, 0, 64+len(r.cells)*24)
	buf = append(buf, 'S', 'R')
	var hdr [32]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(r.capacity))
	binary.LittleEndian.PutUint64(hdr[4:], r.universe)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(r.perTable))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(r.maxCount))
	buf = append(buf, hdr[:24]...)
	for _, enc := range hashes {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(enc)))
		buf = append(buf, l[:]...)
		buf = append(buf, enc...)
	}
	var cell [24]byte
	for _, c := range r.cells {
		binary.LittleEndian.PutUint64(cell[0:], uint64(c.count))
		binary.LittleEndian.PutUint64(cell[8:], c.keySum)
		binary.LittleEndian.PutUint64(cell[16:], c.fpSum)
		buf = append(buf, cell[:]...)
	}
	return buf, nil
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
		cells[i].count = int64(binary.LittleEndian.Uint64(data[pos:]))
		cells[i].keySum = binary.LittleEndian.Uint64(data[pos+8:])
		cells[i].fpSum = binary.LittleEndian.Uint64(data[pos+16:])
		// Every encoder writes reduced sums; the field adds and the
		// decode's division test assume them.
		if cells[i].keySum >= nt.MersennePrime61 || cells[i].fpSum >= nt.MersennePrime61 {
			return errBadRecoveryData
		}
		pos += 24
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
