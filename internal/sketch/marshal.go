package sketch

import (
	"encoding/binary"
	"errors"

	"repro/internal/hash"
	"repro/internal/wire"
)

// Binary layout of a CountSketch: "CS" magic, rows, cols, maxAbs, mass,
// the hash wiring, then rows*cols little-endian int64 counters. A
// deserialized sketch can be combined (Add/Sub) with any sketch carrying
// the same wiring — the distributed-aggregation and synchronization
// use cases of linear sketches.

var errBadSketchData = errors.New("sketch: malformed CountSketch data")

// MarshalBinary encodes the sketch including its hash functions.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return cs.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (cs *CountSketch) EncodedLen() int { return 34 + cs.buckets.EncodedLen() + 8*len(cs.flat) }

// AppendBinary appends the sketch's encoding to dst.
func (cs *CountSketch) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.Grow(dst, cs.EncodedLen())
	dst = append(dst, 'C', 'S')
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cs.rows))
	dst = binary.LittleEndian.AppendUint64(dst, cs.cols)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(cs.MaxAbs()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(cs.mass))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cs.buckets.EncodedLen()))
	dst, _ = cs.buckets.AppendBinary(dst) // a Buckets encoding cannot fail
	at := len(dst)
	dst = dst[:at+8*len(cs.flat)]
	for i, v := range cs.flat {
		binary.LittleEndian.PutUint64(dst[at+8*i:], uint64(v))
	}
	return dst, nil
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
	for i := range flat {
		flat[i] = int64(binary.LittleEndian.Uint64(data[pos+8*i:]))
	}
	table := make([][]int64, rows)
	for r := range table {
		table[r] = flat[uint64(r)*cols : uint64(r+1)*cols : uint64(r+1)*cols]
	}
	cs.buckets, cs.rows, cs.cols = buckets, rows, cols
	cs.flat, cs.table, cs.mass = flat, table, mass
	cs.qInt = make([]int64, rows)
	cs.qFloat = make([]float64, rows)
	cs.upCols = make([]uint64, rows)
	cs.upSigns = make([]int64, rows)
	return nil
}
