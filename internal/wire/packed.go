package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// packed.go is the codec's one count-column layout and its one API: a
// column of counters written at the byte width most of its entries
// need, with the few wider ones patched in behind it, so a table
// travels in about the bits the space bound charges its typical counter
// rather than in its widest one's (or in a 64-bit word apiece). An
// α-property counter needs O(log α) bits, and a sampled table holds
// mostly small counts beside a handful of heavy ones: the width of the
// widest entry would charge every counter for those few.
//
//	u8            widths: the low width in the low nibble, the high width
//	              (the widest entry's) in the high nibble, 1 ≤ low ≤ high ≤ 8
//	u32           patches, only when high > low: the entries wider than low
//	n × low       every entry's low bytes, little-endian
//	patches × u32 the patched entries' indices, ascending
//	patches × (high − low) their remaining bytes, little-endian
//
// The widths are a function of the column's values — low is the width
// that minimises the column's length (the wider one on a tie), high the
// widest entry's — so equal states marshal to equal bytes, and the
// reader refuses any column the writer would not have written (indices
// out of order or range, a patch with no high bytes, a high width no
// entry needs, a low width that is not the minimising one): accepted
// bytes re-marshal to themselves. A signed column is zigzagged on the
// way, so its width follows its magnitude.
//
// A column moves as a whole slice — LayoutOf scans it, WriteCounts
// writes it, ReadCounts reads it — in loops generic over the entry type,
// so a signed column zigzags inside them (int64 and uint64 are distinct
// shapes, each compiled apart). The low bytes move a word at a time:
// each entry is an 8-byte little-endian store whose high bytes the next
// entries overwrite, and unpacking an 8-byte load and a mask. Only the
// last entries, whose word would run past the low bytes' end, and the
// patches move a byte at a time.

// Count is a count column's entry type: an unsigned count, or a signed
// one, which travels zigzagged.
type Count interface{ int64 | uint64 }

// ByteWidth returns the number of bytes, 1 to 8, that hold v.
func ByteWidth(v uint64) int { return max(1, (bits.Len64(v)+7)/8) }

// Zigzag maps a signed count to an unsigned one of about its magnitude
// (0, -1, 1, -2, … to 0, 1, 2, 3, …) so a packed column of small
// counts of either sign stays narrow.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// signed reports whether T is int64; a constant in each shape's body.
func signed[T Count]() bool { return ^T(0) < 0 }

// encode is the unsigned value entry x travels as.
func encode[T Count](x T) uint64 {
	if signed[T]() {
		return Zigzag(int64(x))
	}
	return uint64(x)
}

// decode is the entry that travels as u. Decoding distributes over
// XOR between a patched entry's low bytes and its high part, whose bits
// sit above every low bit (so its lowest bit, a zigzag's sign, is
// clear): a reader decodes the low bytes and XORs the high part's
// decoding in later.
func decode[T Count](u uint64) T {
	if signed[T]() {
		return T(Unzigzag(u))
	}
	return T(u)
}

// MinColumnLen is the least encoded length of an n-entry count column:
// every entry one byte, nothing patched.
func MinColumnLen(n int) int { return 1 + n }

// widths is a count column's histogram of entry byte widths, which its
// layout is chosen from. The zero value is empty.
type widths [9]int // [w]: entries of byte width w; [0] holds zeros, width 1

// add counts one entry.
func (h *widths) add(v uint64) { h[(bits.Len64(v)+7)>>3]++ }

// LayoutOf is the Layout of all's entries, in one pass for most
// columns. That pass takes the column's OR eight entries at a time and
// counts the wider-than-a-byte entries only in a block whose OR is
// wider (an entry below 2^63 is wider exactly when 255−x has its top
// bit set): a sampled table's blocks are mostly byte-wide. With the OR
// below 2^63 the count settles the layout outright when every entry
// fits two bytes, and when patching every wider entry into a byte-wide
// column is shorter than any column at two bytes or more could be — a
// sampled table's shape. Any other column is counted by width in a
// second pass.
func LayoutOf[T Count](all []T) Layout {
	v := all
	var or uint64
	n, wide := len(v), 0
	for ; len(v) >= 8; v = v[8:] {
		o := encode(v[0]) | encode(v[1]) | encode(v[2]) | encode(v[3]) |
			encode(v[4]) | encode(v[5]) | encode(v[6]) | encode(v[7])
		or |= o
		if o > 255 {
			for _, x := range v[:8] {
				wide += int((255 - encode(x)) >> 63)
			}
		}
	}
	for _, x := range v {
		u := encode(x)
		or |= u
		wide += int((255 - u) >> 63)
	}
	var h widths
	if high := ByteWidth(or); or < 1<<63 {
		if high <= 2 {
			h[1], h[2] = n-wide, wide
			return h.layout()
		}
		if l := (Layout{n: n, low: 1, high: high, patches: wide}); l.Len() < 1+2*n {
			return l
		}
	}
	for _, x := range all {
		h.add(encode(x))
	}
	return h.layout()
}

// Layout is the shape of a count column: its entry count, its low and
// high byte widths and the number of entries patched above the low
// width. LayoutOf chooses it; Len is its encoded length.
type Layout struct {
	n, low, high, patches int
}

// layout returns the column layout of the entries counted: the low
// width whose column is shortest, the wider one on a tie (fewer
// patches to apply).
func (h *widths) layout() Layout {
	n, high := h[0], 1
	for w := 1; w <= 8; w++ {
		if h[w] > 0 {
			n, high = n+h[w], w
		}
	}
	best := Layout{n: n, low: high, high: high}
	above := 0
	for low := high - 1; low >= 1; low-- {
		above += h[low+1]
		if l := (Layout{n: n, low: low, high: high, patches: above}); l.Len() < best.Len() {
			best = l
		}
	}
	return best
}

// Len is the column's encoded length.
func (l Layout) Len() int {
	n := 1 + l.n*l.low
	if l.high > l.low {
		n += 4 + l.patches*(4+l.high-l.low)
	}
	return n
}

// column is a count column's bytes, open for WriteCounts to fill or
// ReadCounts to unpack.
type column struct {
	b     []byte // the low bytes
	low   int
	whole int    // entries below whole move their low bytes as whole words
	mask  uint64 // the low width's bytes
	index []byte // patches × u32
	high  []byte // patches × (high − low)
	hw    int    // high − low
	next  int    // the next patch to write
}

func newColumn(b []byte, low int) column {
	// Entry i's word b[i·low : i·low+8] lies inside b while
	// i·low+8 <= len(b).
	whole := 0
	if len(b) >= 8 {
		whole = (len(b)-8)/low + 1
	}
	return column{b: b, low: low, whole: whole, mask: ^uint64(0) >> (64 - 8*low)}
}

// column appends a column of layout l — its widths byte, its patch
// count and room for its entries and patches — for WriteCounts to
// fill.
func (w *Writer) column(l Layout) column {
	w.U8(uint8(l.low | l.high<<4))
	if l.high > l.low {
		w.U32(uint32(l.patches))
	}
	// One Extend: a second could move the buffer under the first's
	// slice.
	lows, hw := l.n*l.low, l.high-l.low
	b := w.Extend(lows + (4+hw)*l.patches)
	c := newColumn(b[:lows], l.low)
	c.index, c.high, c.hw = b[lows:lows+4*l.patches], b[lows+4*l.patches:], hw
	return c
}

// patch records entry i, of value v, as the next patch.
func (c *column) patch(i int, v uint64) {
	k := c.next
	binary.LittleEndian.PutUint32(c.index[4*k:], uint32(i))
	for j := range c.hw {
		c.high[k*c.hw+j] = byte(v >> (8 * (c.low + j)))
	}
	c.next++
}

// WriteCounts appends v to w as a count column of layout l, which is
// LayoutOf(v).
func WriteCounts[T Count](w *Writer, v []T, l Layout) {
	c := w.column(l)
	b, at, low, mask := c.b, 0, c.low, c.mask
	for i, x := range v[:c.whole] {
		u := encode(x)
		binary.LittleEndian.PutUint64(b[at:at+8], u)
		at += low
		if u > mask {
			c.patch(i, u)
		}
	}
	for i := c.whole; i < len(v); i++ { // a word would run past the low bytes' end
		u := encode(v[i])
		for k := range low {
			b[i*low+k] = byte(u >> (8 * k))
		}
		if u > mask {
			c.patch(i, u)
		}
	}
}

// ReadCounts fills dst from a len(dst)-entry count column and returns
// the OR of the values its entries travel as, for a caller that bounds
// them. It refuses, with the error latched and dst unwritten, a column
// the writer would not have written.
func ReadCounts[T Count](r *Reader, dst []T) (or uint64) {
	c := r.column(len(dst))
	if r.err != nil {
		return 0
	}
	b, low, mask, at := c.b, c.low, c.mask, 0
	for i := range dst[:c.whole] {
		x := binary.LittleEndian.Uint64(b[at:at+8]) & mask
		dst[i] = decode[T](x)
		or |= x
		at += low
	}
	for i := c.whole; i < len(dst); i++ {
		x := c.atTail(i)
		dst[i] = decode[T](x)
		or |= x
	}
	for k := range len(c.index) / 4 {
		hi := c.highAt(k) << (8 * low)
		dst[c.indexAt(k)] ^= decode[T](hi)
		or |= hi
	}
	return or
}

// column takes an n-entry count column, refusing (with the error
// latched) one the writer would not have written.
func (r *Reader) column(n int) column {
	wb := r.U8()
	low, high := int(wb&15), int(wb>>4)
	if r.err == nil && (low < 1 || low > high || high > 8) {
		r.fail("wire: count column widths %d/%d outside 1 <= low <= high <= 8", low, high)
	}
	if r.err != nil {
		return column{}
	}
	patches := 0
	if high > low {
		m := r.U32()
		if r.err == nil && (m < 1 || int64(m) > int64(n)) {
			r.fail("wire: %d patches in a %d-entry count column of widths %d/%d", m, n, low, high)
		}
		patches = int(m)
	}
	b := r.Take(n * low)
	if r.err == nil && int64(patches)*int64(4+high-low) > int64(r.Remaining()) {
		r.fail("wire: %d patches exceed the remaining %d bytes", patches, r.Remaining())
	}
	index := r.Take(4 * patches)
	hb := r.Take((high - low) * patches)
	if r.err != nil {
		return column{}
	}
	c := newColumn(b, low)
	c.index, c.high, c.hw = index, hb, high-low
	if err := c.check(n, high); err != nil {
		r.fail("%v", err)
	}
	return c
}

// check holds the column to the one the writer makes of its values:
// patches at ascending in-range indices, each with high bytes, the
// widest needing exactly the high width, and the widths the layout of
// the values' widths.
func (c *column) check(n, high int) error {
	var h widths
	widest, prev, patches := 0, -1, len(c.index)/4
	for k := range patches {
		i := c.indexAt(k)
		if i <= prev || i >= n {
			return fmt.Errorf("wire: count column patch %d at entry %d (after %d, of %d)", k, i, prev, n)
		}
		prev = i
		hi := c.highAt(k)
		if hi == 0 {
			return fmt.Errorf("wire: count column patch at entry %d carries no high bytes", i)
		}
		w := ByteWidth(hi)
		widest = max(widest, w)
		h[c.low+w]++
	}
	if patches > 0 && widest != c.hw {
		return fmt.Errorf("wire: count column high width %d, its widest entry needs %d", high, c.low+widest)
	}
	// The entries left unpatched have their low width; below width 2
	// every one is width 1, otherwise their low bytes are counted, less
	// the patched entries'.
	if c.low == 1 {
		h[1] += n - patches
	} else {
		var lows widths
		for i := range n {
			lows.add(c.lowAt(i))
		}
		for k := range patches {
			lows[(bits.Len64(c.lowAt(c.indexAt(k)))+7)>>3]--
		}
		for w := range c.low + 1 {
			h[w] += lows[w]
		}
	}
	if l := h.layout(); l != (Layout{n: n, low: c.low, high: high, patches: patches}) {
		return fmt.Errorf("wire: count column widths %d/%d with %d patches, its entries call for %d/%d with %d",
			c.low, high, patches, l.low, l.high, l.patches)
	}
	return nil
}

// indexAt is patch k's entry index.
func (c *column) indexAt(k int) int { return int(binary.LittleEndian.Uint32(c.index[4*k:])) }

// highAt is patch k's high bytes as a number.
func (c *column) highAt(k int) uint64 {
	at := k * c.hw
	if at+8 <= len(c.high) {
		return binary.LittleEndian.Uint64(c.high[at:]) & (^uint64(0) >> (64 - 8*c.hw))
	}
	var v uint64
	for j := c.hw - 1; j >= 0; j-- {
		v = v<<8 | uint64(c.high[at+j])
	}
	return v
}

// lowAt reads entry i's low bytes: its value unless it is patched.
func (c *column) lowAt(i int) uint64 {
	if i < c.whole {
		return binary.LittleEndian.Uint64(c.b[i*c.low:]) & c.mask
	}
	return c.atTail(i)
}

// atTail reads an entry whose word would run past the low bytes' end.
func (c *column) atTail(i int) uint64 {
	var v uint64
	for k := c.low - 1; k >= 0; k-- {
		v = v<<8 | uint64(c.b[i*c.low+k])
	}
	return v
}
