package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestByteWidth: the width steps up exactly where a value stops
// fitting a byte count.
func TestByteWidth(t *testing.T) {
	for _, c := range []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 3},
		{1<<24 - 1, 3}, {1 << 24, 4}, {1<<56 - 1, 7}, {1 << 56, 8}, {math.MaxUint64, 8},
	} {
		if got := ByteWidth(c.v); got != c.width {
			t.Errorf("ByteWidth(%d) = %d, want %d", c.v, got, c.width)
		}
	}
}

// TestZigzag: small counts of either sign stay small, and the map is
// its own round trip at the extremes.
func TestZigzag(t *testing.T) {
	for _, c := range []struct {
		v int64
		u uint64
	}{{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {-128, 255}, {128, 256}, {math.MaxInt64, math.MaxUint64 - 1}, {math.MinInt64, math.MaxUint64}} {
		if got := Zigzag(c.v); got != c.u {
			t.Errorf("Zigzag(%d) = %d, want %d", c.v, got, c.u)
		}
		if got := Unzigzag(c.u); got != c.v {
			t.Errorf("Unzigzag(%d) = %d, want %d", c.u, got, c.v)
		}
	}
}

// refColumn is the layout written out the plain way, a byte at a time,
// at the low width the brute-force search over every width picks.
func refColumn(v []uint64) []byte {
	high := 1
	for _, x := range v {
		high = max(high, ByteWidth(x))
	}
	bestLen, low := 0, 0
	for lw := high; lw >= 1; lw-- {
		n := 1 + len(v)*lw
		if lw < high {
			n += 4
			for _, x := range v {
				if ByteWidth(x) > lw {
					n += 4 + high - lw
				}
			}
		}
		if low == 0 || n < bestLen {
			bestLen, low = n, lw
		}
	}
	out := []byte{byte(low | high<<4)}
	var idx, hi []byte
	for i, x := range v {
		for k := range low {
			out = append(out, byte(x>>(8*k)))
		}
		if ByteWidth(x) > low {
			idx = binary.LittleEndian.AppendUint32(idx, uint32(i))
			for k := low; k < high; k++ {
				hi = append(hi, byte(x>>(8*k)))
			}
		}
	}
	if high > low {
		out = append(out[:1], append(binary.LittleEndian.AppendUint32(nil, uint32(len(idx)/4)), out[1:]...)...)
	}
	return append(append(out, idx...), hi...)
}

// skewed is n counts most of which fit a byte, with outliers of up to
// widest bytes at random places and widths: the shape of a sampled
// table.
func skewed(rng *rand.Rand, n int, outliers float64, widest int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(rng.Intn(256))
		if rng.Float64() < outliers {
			w := 1 + rng.Intn(widest)
			v[i] = rng.Uint64() >> (64 - 8*w)
		}
	}
	return v
}

// TestPackedRoundTrip: for columns of every length up to past the
// word-store cutover, dense, skewed and uniformly wide, LayoutOf lays a
// column out as its Widths do, and Counts and a Column of Puts lay it
// out as the bytewise reference does, behind whatever the buffer held
// and ahead of the next field, in Layout.Len bytes; Counts and Value
// read it back bit for bit, and Counts returns the entries' OR.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 1100; n += 1 + n/8 {
		for _, outliers := range []float64{0, 0.05, 0.3, 1} {
			for _, widest := range []int{2, 3, 8} {
				v := skewed(rng, n, outliers, widest)
				if n > 0 && outliers > 0 && widest == 8 {
					v[n-1] = math.MaxUint64 // the widest entry last, where the tail path writes it
				}
				roundTrip(t, v)
			}
		}
	}
}

func roundTrip(t *testing.T, v []uint64) {
	t.Helper()
	n := len(v)
	l := LayoutOf(v)
	var h Widths
	var or uint64
	for _, x := range v {
		h.Add(x)
		or |= x
	}
	if h.Layout() != l {
		t.Fatalf("%d entries: Widths lay out %+v, LayoutOf %+v", n, h.Layout(), l)
	}
	want := refColumn(v)
	prefix := []byte{0xA5, 0x5A, 0xA5}
	w := State(append(make([]byte, 0, 512), prefix...))
	w.Counts(v, l)
	w.U8(0xEE) // the next field
	col := State(bytes.Clone(prefix))
	c := col.Column(l)
	for i, x := range v {
		c.Put(i, x)
	}
	col.U8(0xEE)
	got := w.Bytes()
	if !bytes.Equal(got, col.Bytes()) || !bytes.Equal(got[:3], prefix) ||
		!bytes.Equal(got[3:len(got)-1], want) || got[len(got)-1] != 0xEE || l.Len() != len(want) {
		t.Fatalf("%d entries: Counts % x, Column % x, want %x ‖ % x ‖ ee (Len %d)", n, got, col.Bytes(), prefix, want, l.Len())
	}

	back := make([]uint64, n)
	r := &Reader{data: got[3:]}
	if got := r.Counts(back); got != or {
		t.Fatalf("%d entries: Counts returned OR %x, want %x", n, got, or)
	}
	r.U8()
	if err := r.Done(); err != nil {
		t.Fatalf("%d entries: %v", n, err)
	}
	r = &Reader{data: got[3:]}
	rc, ok := r.Column(n)
	for i := range v {
		if !ok || back[i] != v[i] || rc.Value(i) != v[i] {
			t.Fatalf("%d entries, entry %d: Counts read %d, wrote %d", n, i, back[i], v[i])
		}
	}
}

// TestLayoutPatchesTheFew: a byte-wide column with a few wide entries
// packs at one byte and patches them; with many wide entries it packs
// at their width; a uniform column patches nothing.
func TestLayoutPatchesTheFew(t *testing.T) {
	few := make([]uint64, 1000)
	few[10], few[500] = 1<<20, 1<<17
	many := make([]uint64, 1000)
	for i := range many {
		many[i] = 1 << 16
	}
	many[0] = 1
	for _, c := range []struct {
		v    []uint64
		want Layout
	}{
		{few, Layout{n: 1000, low: 1, high: 3, patches: 2}},
		{many, Layout{n: 1000, low: 3, high: 3}},
		{make([]uint64, 7), Layout{n: 7, low: 1, high: 1}},
		{nil, Layout{low: 1, high: 1}},
	} {
		if got := LayoutOf(c.v); got != c.want {
			t.Errorf("%d entries: layout %+v, want %+v", len(c.v), got, c.want)
		}
	}
}

// TestPackedWidthEight: a column of full words packs at width 8,
// nothing patched: one widths byte, then the fixed-width word layout.
func TestPackedWidthEight(t *testing.T) {
	v := []uint64{1 << 63, math.MaxUint64, 1 << 62, 1 << 60}
	w := State(nil)
	w.Counts(v, LayoutOf(v))
	fixed := State([]byte{0x88})
	fixed.FixedU64s(v)
	if !bytes.Equal(w.Bytes(), fixed.Bytes()) {
		t.Fatalf("width-8 column % x, words % x", w.Bytes(), fixed.Bytes())
	}
}

// column encodes v for the refusal cases to corrupt.
func column(v []uint64) []byte {
	w := State(nil)
	w.Counts(v, LayoutOf(v))
	return w.Bytes()
}

// refuses reads data as an n-entry column into a dst of sevens and
// fails t unless the read is refused with an error naming msg before
// dst is written.
func refuses(t *testing.T, name, msg string, data []byte, n int) {
	t.Helper()
	dst := slices.Repeat([]uint64{7}, n)
	r := &Reader{data: data}
	r.Counts(dst)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), msg) {
		t.Errorf("%s: err = %v, want one naming %q", name, err, msg)
	}
	if dst[0] != 7 {
		t.Errorf("%s: the refused column was written", name)
	}
}

// patched is a 40-entry column of widths 1/3 with patches at entries
// 3, 7 and 9, and the offsets of its index list and high bytes.
func patched(t *testing.T) (good []byte, idx, hi int) {
	v := make([]uint64, 40)
	v[3], v[7], v[9] = 1<<16, 1<<10, 300
	good = column(v)
	if good[0] != 0x31 || binary.LittleEndian.Uint32(good[1:]) != 3 {
		t.Fatalf("the fixture column is % x", good)
	}
	return good, 5 + 40, 5 + 40 + 12
}

// TestPackedRefusesWidth: widths outside 1 <= low <= high <= 8, and a
// column longer than the input, are refused before anything is read
// into dst, and the error latches.
func TestPackedRefusesWidth(t *testing.T) {
	good, _, _ := patched(t)
	for name, widths := range map[string]byte{"low width 0": 0x30, "low above high": 0x13, "high above 8": 0x91} {
		refuses(t, name, "widths", append([]byte{widths}, good[1:]...), 40)
	}
	refuses(t, "one byte short", "exceed", good[:len(good)-1], 40)
	refuses(t, "no patch list", "truncated", []byte{0x11, 1, 2, 3}, 40)
}

// TestPackedRefusesWhatNoWriterWrites: every way a well-framed column
// can differ from the one its values encode to is refused before dst
// is written.
func TestPackedRefusesWhatNoWriterWrites(t *testing.T) {
	good, idx, hi := patched(t)
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	for _, c := range []struct {
		name, msg string
		data      []byte
	}{
		{"no patches", "patches", edit(func(b []byte) { b[1] = 0 })},
		{"more patches than entries", "patches", edit(func(b []byte) { b[1] = 41 })},
		{"indices out of order", "patch", edit(func(b []byte) { b[idx], b[idx+4] = 7, 3 })},
		{"index repeated", "patch", edit(func(b []byte) { b[idx+4] = 3 })},
		{"index out of range", "patch", edit(func(b []byte) { b[idx+8] = 40 })},
		{"a patch with no high bytes", "no high bytes", edit(func(b []byte) { b[hi+4], b[hi+5] = 0, 0 })},
		{"a high width no entry needs", "high width", edit(func(b []byte) { b[hi], b[hi+1] = 1, 0 })},
		{"a low width above the shortest", "call for", append([]byte{0x22}, make([]byte, 80)...)}, // forty zeros at width 2
	} {
		refuses(t, c.name, c.msg, c.data, 40)
	}
	// At a low width above one the unpatched entries' widths count too:
	// forty two-byte entries and one three-byte one pack at 2/3 with one
	// patch; patching all of them into a byte-wide column is longer, and
	// refused.
	v := slices.Repeat([]uint64{300}, 40)
	v[20] = 1 << 20
	if got := column(v); got[0] != 0x32 {
		t.Fatalf("the two-byte column packs at widths % x", got[0])
	}
	w := State(nil)
	c := w.Column(Layout{n: 40, low: 1, high: 3, patches: 40})
	for i, x := range v {
		c.Put(i, x)
	}
	refuses(t, "every entry patched", "call for", w.Bytes(), 40)
}

// FuzzCountColumn holds the codec to its two contracts on fuzzer-owned
// input. Values built from the bytes — mostly byte-wide, with a few wide
// outliers of fuzzer-chosen widths — round-trip bit for bit as
// TestPackedRoundTrip's columns do (roundTrip). The same bytes read
// as a column either are refused or re-encode to themselves, never
// panic, and the read allocates nothing beyond the entries it fills.
func FuzzCountColumn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(0))
	f.Add(column([]uint64{1, 2, 1 << 20, 3}), uint8(4))
	f.Add(column([]uint64{1 << 16, 1 << 16, 1 << 16, 7}), uint8(4))
	v := make([]uint64, 40)
	v[5], v[30] = math.MaxUint64, 1<<40
	f.Add(column(v), uint8(40))
	f.Add(append([]byte{0x22}, make([]byte, 8)...), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		// Values: each byte an entry; a byte whose top bits are set
		// takes the next bytes as a wide outlier of its low bits' width.
		var vals []uint64
		for i := 0; i < len(data); i++ {
			x := uint64(data[i])
			if x >= 0xF8 {
				w := int(x&7) + 1
				x = 0
				for k := 0; k < w && i+1 < len(data); k++ {
					i++
					x |= uint64(data[i]) << (8 * k)
				}
			}
			vals = append(vals, x)
		}
		roundTrip(t, vals)

		// Bytes: n entries read from data.
		dst := make([]uint64, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := &Reader{data: data}
		rd.Counts(dst)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1024 {
			t.Fatalf("reading a %d-byte column allocated %d bytes", len(data), grew)
		}
		if rd.Err() != nil {
			return
		}
		again := State(nil)
		again.Counts(dst, LayoutOf(dst))
		if !bytes.Equal(again.Bytes(), data[:rd.Offset()]) {
			t.Fatalf("accepted % x re-encodes to % x", data[:rd.Offset()], again.Bytes())
		}
	})
}

// fillInto fills dst from a count column.
type fillInto []uint64

func (v fillInto) Fill(r *Reader) { r.Counts(v) }
