package wire

import (
	"encoding/binary"
	"math/bits"
)

// packed.go is the codec's one variable-width layout: a count column
// written at the byte width its widest entry needs, so a table of
// counters travels in about the bits the space bound charges it rather
// than in a 64-bit word apiece. The width is a function of the column's
// values, so equal states still marshal to equal bytes; the structure
// writes it as one byte ahead of the column and the reader refuses one
// outside [1, 8]. A signed column is zigzagged first, so its width
// follows its magnitude.
//
// Packing works a word at a time: each entry is an 8-byte
// little-endian store whose high bytes the next entries overwrite (so a
// column is written in increasing entry order), and unpacking an 8-byte
// load and a mask. Only the column's last entries, whose word would run
// past its end, move a byte at a time.

// ByteWidth returns the number of bytes, 1 to 8, that hold v: the width
// of a column whose entries OR to v.
func ByteWidth(v uint64) int { return max(1, (bits.Len64(v)+7)/8) }

// Zigzag maps a signed count to an unsigned one of about its magnitude
// (0, -1, 1, -2, … to 0, 1, 2, 3, …) so a packed column of small
// counts of either sign stays narrow.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Column is a packed column open for writing (Put) or reading (At) by
// entry index. Packed moves a plain []uint64; a structure whose counts
// sit inside records, or need a zigzag on the way, drives a Column
// itself.
type Column struct {
	b     []byte
	width int
	whole int    // entries below whole move as whole words
	mask  uint64 // the low width bytes
}

func newColumn(b []byte, width int) Column {
	// Entry i's word b[i·width : i·width+8] lies inside b while
	// i·width+8 <= len(b).
	whole := 0
	if len(b) >= 8 {
		whole = (len(b)-8)/width + 1
	}
	return Column{b: b, width: width, whole: whole, mask: ^uint64(0) >> (64 - 8*width)}
}

// Column appends n entries at width bytes each (no width byte: the
// structure writes it) for Put to fill.
func (w *Writer) Column(n, width int) Column { return newColumn(w.Extend(n*width), width) }

// Put writes v, which fits the column's width, as entry i. Entries are
// put in increasing order: the word store writes zeros over the entries
// behind i, which their own Puts then fill.
func (c Column) Put(i int, v uint64) {
	if i < c.whole {
		binary.LittleEndian.PutUint64(c.b[i*c.width:], v)
		return
	}
	c.putTail(i, v)
}

// putTail writes an entry whose word would run past the column's end.
func (c Column) putTail(i int, v uint64) {
	for k := range c.width {
		c.b[i*c.width+k] = byte(v >> (8 * k))
	}
}

// Column takes n entries at width bytes each for At, refusing a width
// outside [1, 8]. ok is false, with the error latched, when it cannot.
func (r *Reader) Column(n, width int) (c Column, ok bool) {
	if width < 1 || width > 8 {
		r.fail("wire: packed column width %d outside [1, 8]", width)
		return Column{}, false
	}
	b := r.Take(n * width)
	if r.err != nil {
		return Column{}, false
	}
	return newColumn(b, width), true
}

// At reads entry i.
func (c Column) At(i int) uint64 {
	if i < c.whole {
		return binary.LittleEndian.Uint64(c.b[i*c.width:]) & c.mask
	}
	return c.atTail(i)
}

// atTail reads an entry whose word would run past the column's end.
func (c Column) atTail(i int) uint64 {
	var v uint64
	for k := c.width - 1; k >= 0; k-- {
		v = v<<8 | uint64(c.b[i*c.width+k])
	}
	return v
}

// Packed appends v at width bytes per entry; every entry fits width.
func (w *Writer) Packed(v []uint64, width int) {
	c := w.Column(len(v), width)
	b, at := c.b, 0
	for _, x := range v[:c.whole] {
		binary.LittleEndian.PutUint64(b[at:at+8], x)
		at += width
	}
	for i := c.whole; i < len(v); i++ {
		c.putTail(i, v[i])
	}
}

// Packed fills dst from len(dst) entries at width bytes each, refusing
// a width outside [1, 8].
func (r *Reader) Packed(dst []uint64, width int) {
	c, ok := r.Column(len(dst), width)
	if !ok {
		return
	}
	b, mask, at := c.b, c.mask, 0
	for i := range dst[:c.whole] {
		dst[i] = binary.LittleEndian.Uint64(b[at:at+8]) & mask
		at += width
	}
	for i := c.whole; i < len(dst); i++ {
		dst[i] = c.atTail(i)
	}
}
