package hash

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/nt"
)

// Binary layout of a KWise function: "HK" magic, a uint16 k, then k
// little-endian uint64 coefficients. No sketch encoding uses it: a
// sketch's hash functions are rebuilt from its Config's seed by its
// constructor, so they never travel. What is left here encodes a bare
// function or wiring on its own.

var errBadHashData = errors.New("hash: malformed KWise data")

// MarshalBinary encodes the function's coefficients.
func (h *KWise) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// EncodedLen is the length of the function's encoding.
func (h *KWise) EncodedLen() int { return 4 + 8*len(h.coeffs) }

// AppendBinary appends the function's encoding to dst.
func (h *KWise) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, 'H', 'K')
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.coeffs)))
	for _, c := range h.coeffs {
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	return dst, nil
}

// UnmarshalBinary restores a function serialized by MarshalBinary.
func (h *KWise) UnmarshalBinary(data []byte) error {
	if len(data) < 4 || data[0] != 'H' || data[1] != 'K' {
		return errBadHashData
	}
	k := int(binary.LittleEndian.Uint16(data[2:]))
	if k < 1 || len(data) != 4+8*k {
		return errBadHashData
	}
	coeffs := make([]uint64, k)
	for i := range coeffs {
		c := binary.LittleEndian.Uint64(data[4+8*i:])
		if c >= nt.MersennePrime61 {
			return fmt.Errorf("hash: coefficient %d out of field", i)
		}
		coeffs[i] = c
	}
	h.coeffs = coeffs
	return nil
}

// MarshalBinary encodes a Buckets wiring: "HB" magic, a format version,
// rows, cols, then each row's single 4-wise function. Version 2 is the
// single-polynomial-per-row layout (bucket and sign share one
// evaluation); the version byte rejects payloads from the historical
// two-polynomial layout instead of silently mis-wiring them.
func (b *Buckets) MarshalBinary() ([]byte, error) { return b.AppendBinary(nil) }

// EncodedLen is the length of the wiring's encoding.
func (b *Buckets) EncodedLen() int {
	n := 15
	for _, f := range b.fns {
		n += 4 + f.EncodedLen()
	}
	return n
}

// AppendBinary appends the wiring's encoding to dst.
func (b *Buckets) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, 'H', 'B', bucketsFormatV2)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Rows))
	dst = binary.LittleEndian.AppendUint64(dst, b.Cols)
	for _, f := range b.fns {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.EncodedLen()))
		dst, _ = f.AppendBinary(dst) // a KWise encoding cannot fail
	}
	return dst, nil
}

// bucketsFormatV2 tags the single-polynomial-per-row wire layout.
const bucketsFormatV2 = 2

// UnmarshalBinary restores a Buckets wiring.
func (b *Buckets) UnmarshalBinary(data []byte) error {
	if len(data) < 15 || data[0] != 'H' || data[1] != 'B' {
		return errors.New("hash: malformed Buckets data")
	}
	if data[2] != bucketsFormatV2 {
		return fmt.Errorf("hash: unsupported Buckets format %d", data[2])
	}
	rows := int(binary.LittleEndian.Uint32(data[3:]))
	cols := binary.LittleEndian.Uint64(data[7:])
	if rows < 1 || cols < 1 {
		return errors.New("hash: malformed Buckets dims")
	}
	if rows > (len(data)-15)/4 {
		// Every row carries at least its length prefix: refuse before
		// allocating by a count the payload cannot back.
		return errors.New("hash: truncated Buckets data")
	}
	pos := 15
	fns := make([]*KWise, rows)
	for i := 0; i < rows; i++ {
		if pos+4 > len(data) {
			return errors.New("hash: truncated Buckets data")
		}
		l := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if pos+l > len(data) {
			return errors.New("hash: truncated Buckets data")
		}
		h := &KWise{}
		if err := h.UnmarshalBinary(data[pos : pos+l]); err != nil {
			return err
		}
		pos += l
		fns[i] = h
	}
	if pos != len(data) {
		return errors.New("hash: trailing Buckets data")
	}
	for _, f := range fns {
		if f.K() != 4 {
			return errors.New("hash: Buckets rows must be 4-wise")
		}
	}
	b.Rows, b.Cols, b.fns = rows, cols, fns
	b.buildFlat()
	return nil
}
