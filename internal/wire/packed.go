package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// packed.go is the codec's one count-column layout: a column of
// counters written at the byte width most of its entries need, with the
// few wider ones patched in behind it, so a table travels in about the
// bits the space bound charges its typical counter rather than in its
// widest one's (or in a 64-bit word apiece). An α-property counter
// needs O(log α) bits, and a sampled table holds mostly small counts
// beside a handful of heavy ones: the width of the widest entry would
// charge every counter for those few.
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
// bytes re-marshal to themselves. A signed column is zigzagged first, so
// its width follows its magnitude.
//
// The low bytes move a word at a time: each entry is an 8-byte
// little-endian store whose high bytes the next entries overwrite (so a
// column is written in increasing entry order), and unpacking an 8-byte
// load and a mask. Only the last entries, whose word would run past the
// low bytes' end, and the patches move a byte at a time.

// ByteWidth returns the number of bytes, 1 to 8, that hold v.
func ByteWidth(v uint64) int { return max(1, (bits.Len64(v)+7)/8) }

// Zigzag maps a signed count to an unsigned one of about its magnitude
// (0, -1, 1, -2, … to 0, 1, 2, 3, …) so a packed column of small
// counts of either sign stays narrow.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// MinColumnLen is the least encoded length of an n-entry count column:
// every entry one byte, nothing patched.
func MinColumnLen(n int) int { return 1 + n }

// Widths is a count column's histogram of entry byte widths, which its
// layout is chosen from, for a column a structure walks entry by entry
// (LayoutOf takes a plain slice). The zero value is empty.
type Widths struct {
	n [9]int // n[w]: entries of byte width w; n[0] holds zeros, width 1
}

// Add counts one entry.
func (h *Widths) Add(v uint64) { h.n[(bits.Len64(v)+7)>>3]++ }

// LayoutOf is the Layout of the Widths of all, in one pass for most
// columns. That pass takes the column's OR eight entries at a time and
// counts the wider-than-a-byte entries only in a block whose OR is
// wider (an entry below 2^63 is wider exactly when 255−x has its top
// bit set): a sampled table's blocks are mostly byte-wide. With the OR
// below 2^63 the count settles the layout outright when every entry
// fits two bytes, and when patching every wider entry into a byte-wide
// column is shorter than any column at two bytes or more could be — a
// sampled table's shape. Any other column is counted by width in a
// second pass.
func LayoutOf(all []uint64) Layout {
	v := all
	var or uint64
	n, wide := len(v), 0
	for ; len(v) >= 8; v = v[8:] {
		o := v[0] | v[1] | v[2] | v[3] | v[4] | v[5] | v[6] | v[7]
		or |= o
		if o > 255 {
			for _, x := range v[:8] {
				wide += int((255 - x) >> 63)
			}
		}
	}
	for _, x := range v {
		or |= x
		wide += int((255 - x) >> 63)
	}
	var h Widths
	if high := ByteWidth(or); or < 1<<63 {
		if high <= 2 {
			h.n[1], h.n[2] = n-wide, wide
			return h.Layout()
		}
		if l := (Layout{n: n, low: 1, high: high, patches: wide}); l.Len() < 1+2*n {
			return l
		}
	}
	for _, x := range all {
		h.Add(x)
	}
	return h.Layout()
}

// Layout is the shape of a count column: its entry count, its low and
// high byte widths and the number of entries patched above the low
// width. Widths.Layout and LayoutOf choose it; Len is its encoded
// length.
type Layout struct {
	n, low, high, patches int
}

// Layout returns the column layout of the entries counted: the low
// width whose column is shortest, the wider one on a tie (fewer
// patches to apply).
func (h *Widths) Layout() Layout {
	n, high := h.n[0], 1
	for w := 1; w <= 8; w++ {
		if h.n[w] > 0 {
			n, high = n+h.n[w], w
		}
	}
	best := Layout{n: n, low: high, high: high}
	above := 0
	for low := high - 1; low >= 1; low-- {
		above += h.n[low+1]
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

// Column is a count column open for writing (Put) or reading (Value),
// entry by entry in increasing order. Writer.Counts and Reader.Counts
// move a plain []uint64 through one; a structure whose counts sit
// inside records, or need a zigzag on the way, drives a Column itself.
type Column struct {
	b     []byte // the low bytes
	low   int
	whole int    // entries below whole move their low bytes as whole words
	mask  uint64 // the low width's bytes
	index []byte // patches × u32
	high  []byte // patches × (high − low)
	hw    int    // high − low
	next  int    // the next patch to write or apply
}

func newColumn(b []byte, low int) Column {
	// Entry i's word b[i·low : i·low+8] lies inside b while
	// i·low+8 <= len(b).
	whole := 0
	if len(b) >= 8 {
		whole = (len(b)-8)/low + 1
	}
	return Column{b: b, low: low, whole: whole, mask: ^uint64(0) >> (64 - 8*low)}
}

// Column appends a column of layout l — its widths byte, its patch
// count and room for its entries and patches — for Put to fill.
func (w *Writer) Column(l Layout) Column {
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

// Put writes v as entry i. Entries are put in increasing order: the
// word store writes zeros over the entries behind i, which their own
// Puts then fill, and a patch goes behind the ones before it.
func (c *Column) Put(i int, v uint64) {
	if i < c.whole {
		binary.LittleEndian.PutUint64(c.b[i*c.low:], v)
	} else {
		c.putTail(i, v)
	}
	if v > c.mask {
		c.patch(i, v)
	}
}

// putTail writes the low bytes of an entry whose word would run past
// the low bytes' end.
func (c *Column) putTail(i int, v uint64) {
	for k := range c.low {
		c.b[i*c.low+k] = byte(v >> (8 * k))
	}
}

// patch records entry i, of value v, as the next patch.
func (c *Column) patch(i int, v uint64) {
	k := c.next
	binary.LittleEndian.PutUint32(c.index[4*k:], uint32(i))
	for j := range c.hw {
		c.high[k*c.hw+j] = byte(v >> (8 * (c.low + j)))
	}
	c.next++
}

// Counts appends v as a count column of layout l, the Layout of v's
// Widths.
func (w *Writer) Counts(v []uint64, l Layout) {
	c := w.Column(l)
	b, at, low, mask := c.b, 0, c.low, c.mask
	for i, x := range v[:c.whole] {
		binary.LittleEndian.PutUint64(b[at:at+8], x)
		at += low
		if x > mask {
			c.patch(i, x)
		}
	}
	for i := c.whole; i < len(v); i++ {
		c.putTail(i, v[i])
		if v[i] > mask {
			c.patch(i, v[i])
		}
	}
}

// Column takes an n-entry count column for Value, refusing one the
// writer would not have written. ok is false, with the error latched,
// when it cannot.
func (r *Reader) Column(n int) (c Column, ok bool) {
	widths := r.U8()
	low, high := int(widths&15), int(widths>>4)
	if r.err != nil {
		return Column{}, false
	}
	if low < 1 || low > high || high > 8 {
		r.fail("wire: count column widths %d/%d outside 1 <= low <= high <= 8", low, high)
		return Column{}, false
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
		return Column{}, false
	}
	c = newColumn(b, low)
	c.index, c.high, c.hw = index, hb, high-low
	if err := c.check(n, high); err != nil {
		r.fail("%v", err)
		return Column{}, false
	}
	return c, true
}

// check holds the column to the one the writer makes of its values:
// patches at ascending in-range indices, each with high bytes, the
// widest needing exactly the high width, and the widths the Layout of
// the values' Widths.
func (c *Column) check(n, high int) error {
	var h Widths
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
		h.n[c.low+w]++
	}
	if patches > 0 && widest != c.hw {
		return fmt.Errorf("wire: count column high width %d, its widest entry needs %d", high, c.low+widest)
	}
	// The entries left unpatched have their low width; below width 2
	// every one is width 1, otherwise their low bytes are counted, less
	// the patched entries'.
	if c.low == 1 {
		h.n[1] += n - patches
	} else {
		var lows Widths
		for i := range n {
			lows.Add(c.lowAt(i))
		}
		for k := range patches {
			lows.n[(bits.Len64(c.lowAt(c.indexAt(k)))+7)>>3]--
		}
		for w := range c.low + 1 {
			h.n[w] += lows.n[w]
		}
	}
	if l := h.Layout(); l != (Layout{n: n, low: c.low, high: high, patches: patches}) {
		return fmt.Errorf("wire: count column widths %d/%d with %d patches, its entries call for %d/%d with %d",
			c.low, high, patches, l.low, l.high, l.patches)
	}
	return nil
}

// indexAt is patch k's entry index.
func (c *Column) indexAt(k int) int { return int(binary.LittleEndian.Uint32(c.index[4*k:])) }

// highAt is patch k's high bytes as a number.
func (c *Column) highAt(k int) uint64 {
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
func (c *Column) lowAt(i int) uint64 {
	if i < c.whole {
		return binary.LittleEndian.Uint64(c.b[i*c.low:]) & c.mask
	}
	return c.atTail(i)
}

// atTail reads an entry whose word would run past the low bytes' end.
func (c *Column) atTail(i int) uint64 {
	var v uint64
	for k := c.low - 1; k >= 0; k-- {
		v = v<<8 | uint64(c.b[i*c.low+k])
	}
	return v
}

// Value reads entry i in full. Entries are read in increasing order: a
// cursor walks the patches.
func (c *Column) Value(i int) uint64 {
	v := c.lowAt(i)
	if c.next < len(c.index)/4 && c.indexAt(c.next) == i {
		v |= c.highAt(c.next) << (8 * c.low)
		c.next++
	}
	return v
}

// Counts fills dst from a len(dst)-entry count column (Reader.Column)
// and returns the OR of the entries, for a caller that bounds them.
func (r *Reader) Counts(dst []uint64) (or uint64) {
	c, ok := r.Column(len(dst))
	if !ok {
		return 0
	}
	b, low, mask, at := c.b, c.low, c.mask, 0
	for i := range dst[:c.whole] {
		x := binary.LittleEndian.Uint64(b[at:at+8]) & mask
		dst[i] = x
		or |= x
		at += low
	}
	for i := c.whole; i < len(dst); i++ {
		dst[i] = c.atTail(i)
		or |= dst[i]
	}
	for k := range len(c.index) / 4 {
		hi := c.highAt(k) << (8 * c.low)
		dst[c.indexAt(k)] |= hi
		or |= hi
	}
	return or
}
