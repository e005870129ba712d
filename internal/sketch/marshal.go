package sketch

import (
	"encoding/binary"
	"errors"

	"repro/internal/hash"
)

// Binary layout of a CountSketch: "CS" magic, rows, cols, maxAbs, mass,
// the hash wiring, then rows*cols little-endian int64 counters. A
// deserialized sketch can be combined (Add/Sub) with any sketch carrying
// the same wiring — the distributed-aggregation and synchronization
// use cases of linear sketches.

var errBadSketchData = errors.New("sketch: malformed CountSketch data")

// MarshalBinary encodes the sketch including its hash functions.
func (cs *CountSketch) MarshalBinary() ([]byte, error) {
	wiring, err := cs.buckets.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 64+len(wiring)+8*cs.rows*int(cs.cols))
	buf = append(buf, 'C', 'S')
	var hdr [40]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(cs.rows))
	binary.LittleEndian.PutUint64(hdr[4:], cs.cols)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(cs.MaxAbs()))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(cs.mass))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(len(wiring)))
	buf = append(buf, hdr[:32]...)
	buf = append(buf, wiring...)
	var cell [8]byte
	for r := range cs.table {
		for _, v := range cs.table[r] {
			binary.LittleEndian.PutUint64(cell[:], uint64(v))
			buf = append(buf, cell[:]...)
		}
	}
	return buf, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (cs *CountSketch) UnmarshalBinary(data []byte) error {
	if len(data) < 34 || data[0] != 'C' || data[1] != 'S' {
		return errBadSketchData
	}
	rows := int(binary.LittleEndian.Uint32(data[2:]))
	cols := binary.LittleEndian.Uint64(data[6:])
	// data[14:22] holds the encoder's maxAbs diagnostic; it is derivable
	// from the table (MaxAbs), so decoding ignores it.
	mass := int64(binary.LittleEndian.Uint64(data[22:]))
	wlen := int(binary.LittleEndian.Uint32(data[30:]))
	if rows < 1 || cols < 1 || wlen < 0 {
		return errBadSketchData
	}
	pos := 34
	if pos+wlen > len(data) {
		return errBadSketchData
	}
	buckets := &hash.Buckets{}
	if err := buckets.UnmarshalBinary(data[pos : pos+wlen]); err != nil {
		return err
	}
	pos += wlen
	if buckets.Rows != rows || buckets.Cols != cols {
		return errBadSketchData
	}
	// cols is an unbounded wire value (rows * cols * 8 wraps back to the
	// honest length at cols + 2^61): hold it against the counter bytes
	// that remain by dividing, before any arithmetic on it.
	rest := uint64(len(data) - pos)
	if rest%8 != 0 || rest/8%uint64(rows) != 0 || rest/8/uint64(rows) != cols {
		return errBadSketchData
	}
	flat := make([]int64, uint64(rows)*cols)
	table := make([][]int64, rows)
	for r := range table {
		table[r] = flat[uint64(r)*cols : uint64(r+1)*cols : uint64(r+1)*cols]
		for c := range table[r] {
			table[r][c] = int64(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	}
	cs.buckets, cs.rows, cs.cols = buckets, rows, cols
	cs.flat, cs.table, cs.mass = flat, table, mass
	cs.qInt = make([]int64, rows)
	cs.qFloat = make([]float64, rows)
	cs.upCols = make([]uint64, rows)
	cs.upSigns = make([]int64, rows)
	return nil
}
