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

// signedOf is the signed column whose entries travel as v's: v
// unzigzagged, so it packs at v's widths and small counts of either
// sign stay narrow.
func signedOf(v []uint64) []int64 {
	s := make([]int64, len(v))
	for i, u := range v {
		s[i] = Unzigzag(u)
	}
	return s
}

// TestPackedRoundTrip: for columns of every length up to past the
// word-store cutover, dense, skewed and uniformly wide, unsigned and
// signed, LayoutOf lays a column out as its widths histogram does, and
// WriteCounts lays it out as the bytewise reference lays out the values
// its entries travel as (a signed entry zigzagged), behind whatever the
// buffer held and ahead of the next field, in Layout.Len bytes;
// ReadCounts reads it back bit for bit and returns those values' OR.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 1100; n += 1 + n/8 {
		for _, outliers := range []float64{0, 0.05, 0.3, 1} {
			for _, widest := range []int{2, 3, 8} {
				v := skewed(rng, n, outliers, widest)
				if n > 0 && outliers > 0 && widest == 8 {
					v[n-1] = math.MaxUint64 // the widest entry last, where the tail path writes it (math.MinInt64 signed)
				}
				roundTrip(t, v, v)
				roundTrip(t, signedOf(v), v)
			}
		}
	}
}

// roundTrip holds the pair to the reference on v, whose entries travel
// as the values enc.
func roundTrip[T Count](t *testing.T, v []T, enc []uint64) {
	t.Helper()
	n := len(v)
	l := LayoutOf(v)
	var h widths
	var or uint64
	for _, x := range enc {
		h.add(x)
		or |= x
	}
	if h.layout() != l {
		t.Fatalf("%d %T entries: the histogram lays out %+v, LayoutOf %+v", n, v, h.layout(), l)
	}
	want := refColumn(enc)
	prefix := []byte{0xA5, 0x5A, 0xA5}
	w := State(append(make([]byte, 0, 512), prefix...))
	WriteCounts(w, v, l)
	w.U8(0xEE) // the next field
	got := w.Bytes()
	if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:len(got)-1], want) ||
		got[len(got)-1] != 0xEE || l.Len() != len(want) {
		t.Fatalf("%d %T entries: WriteCounts % x, want %x ‖ % x ‖ ee (Len %d)", n, v, got, prefix, want, l.Len())
	}

	back := make([]T, n)
	r := &Reader{data: got[3:]}
	if got := ReadCounts(r, back); got != or {
		t.Fatalf("%d %T entries: ReadCounts returned OR %x, want %x", n, v, got, or)
	}
	r.U8()
	if err := r.Done(); err != nil {
		t.Fatalf("%d %T entries: %v", n, v, err)
	}
	for i := range v {
		if back[i] != v[i] {
			t.Fatalf("%d %T entries, entry %d: ReadCounts read %d, wrote %d", n, v, i, back[i], v[i])
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
	WriteCounts(w, v, LayoutOf(v))
	fixed := State([]byte{0x88})
	fixed.FixedU64s(v)
	if !bytes.Equal(w.Bytes(), fixed.Bytes()) {
		t.Fatalf("width-8 column % x, words % x", w.Bytes(), fixed.Bytes())
	}
}

// encoded encodes v for the refusal cases to corrupt.
func encoded(v []uint64) []byte {
	w := State(nil)
	WriteCounts(w, v, LayoutOf(v))
	return w.Bytes()
}

// refuses reads data as an n-entry column into a dst of sevens and
// fails t unless the read is refused with an error naming msg before
// dst is written.
func refuses(t *testing.T, name, msg string, data []byte, n int) {
	t.Helper()
	dst := slices.Repeat([]uint64{7}, n)
	r := &Reader{data: data}
	ReadCounts(r, dst)
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
	good = encoded(v)
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
	if got := encoded(v); got[0] != 0x32 {
		t.Fatalf("the two-byte column packs at widths % x", got[0])
	}
	w := State(nil)
	WriteCounts(w, v, Layout{n: 40, low: 1, high: 3, patches: 40})
	refuses(t, "every entry patched", "call for", w.Bytes(), 40)
}

// FuzzCountColumn holds the codec to its two contracts on fuzzer-owned
// input, for unsigned and signed columns alike. Values built from the
// bytes — mostly byte-wide, with a few wide outliers of fuzzer-chosen
// widths — round-trip bit for bit as TestPackedRoundTrip's columns do
// (roundTrip), and so do those values unzigzagged. The same bytes read
// as a column of either type either are refused by both or re-encode
// to themselves, the signed entries the unsigned ones unzigzagged;
// nothing panics, and a read allocates nothing beyond the entries it
// fills.
func FuzzCountColumn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(0))
	f.Add(encoded([]uint64{1, 2, 1 << 20, 3}), uint8(4))
	f.Add(encoded([]uint64{1 << 16, 1 << 16, 1 << 16, 7}), uint8(4))
	v := make([]uint64, 40)
	v[5], v[30] = math.MaxUint64, 1<<40
	f.Add(encoded(v), uint8(40))
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
		roundTrip(t, vals, vals)
		roundTrip(t, signedOf(vals), vals)

		// Bytes: n entries read from data, as either type. A refused read
		// allocates its error, and an allocation that refills a span is
		// charged all of the span's free slots at once, so the least of
		// three reads is held to the bound.
		dst, sdst := make([]uint64, n), make([]int64, n)
		var rd, srd *Reader
		grew := uint64(math.MaxUint64)
		for range 3 {
			rd, srd = &Reader{data: data}, &Reader{data: data}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ReadCounts(rd, dst)
			ReadCounts(srd, sdst)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 1024 {
			t.Fatalf("reading a %d-byte column as both types allocated %d bytes", len(data), grew)
		}
		if (rd.Err() == nil) != (srd.Err() == nil) {
			t.Fatalf("% x: read unsigned %v, signed %v", data, rd.Err(), srd.Err())
		}
		if rd.Err() != nil {
			return
		}
		if !slices.Equal(signedOf(dst), sdst) {
			t.Fatalf("% x: signed entries %d, the unsigned ones unzigzagged %d", data, sdst, signedOf(dst))
		}
		again := State(nil)
		WriteCounts(again, dst, LayoutOf(dst))
		if !bytes.Equal(again.Bytes(), data[:rd.Offset()]) {
			t.Fatalf("accepted % x re-encodes to % x", data[:rd.Offset()], again.Bytes())
		}
		again = State(nil)
		WriteCounts(again, sdst, LayoutOf(sdst))
		if !bytes.Equal(again.Bytes(), data[:rd.Offset()]) {
			t.Fatalf("accepted % x re-encodes to % x signed", data[:rd.Offset()], again.Bytes())
		}
	})
}
