package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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

// TestPackedRoundTrip: at every width and at every column length up to
// past the word-store cutover, Packed and Column lay a column out as
// the bytewise little-endian reference does, behind whatever the buffer
// already held, and read it back; the word stores never touch a byte
// outside the column.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 8; width++ {
		mask := ^uint64(0) >> (64 - 8*width)
		for n := 0; n <= 20; n++ {
			v := make([]uint64, n)
			for i := range v {
				v[i] = rng.Uint64() & mask
			}
			if n > 0 {
				v[n-1] = mask // the widest entry last, where the tail path writes it
			}
			var want []byte
			for _, x := range v {
				for k := range width {
					want = append(want, byte(x>>(8*k)))
				}
			}
			prefix := []byte{0xA5, 0x5A, 0xA5}
			w := State(append(make([]byte, 0, 64*8), prefix...))
			w.Packed(v, width)
			w.U8(0xEE) // the next field
			col := State(bytes.Clone(prefix))
			c := col.Column(n, width)
			for i, x := range v {
				c.Put(i, x)
			}
			col.U8(0xEE)
			got := w.Bytes()
			if !bytes.Equal(got, col.Bytes()) || !bytes.Equal(got[:3], prefix) ||
				!bytes.Equal(got[3:len(got)-1], want) || got[len(got)-1] != 0xEE {
				t.Fatalf("width %d, %d entries: Packed % x, Column % x, want %x ‖ % x ‖ ee",
					width, n, got, col.Bytes(), prefix, want)
			}

			back := make([]uint64, n)
			r := &Reader{data: got[3:]}
			r.Packed(back, width)
			r.U8()
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			r = &Reader{data: got[3:]}
			c, ok := r.Column(n, width)
			for i := range v {
				if !ok || back[i] != v[i] || c.At(i) != v[i] {
					t.Fatalf("width %d, entry %d of %d: Packed read %d, At %d, wrote %d", width, i, n, back[i], c.At(i), v[i])
				}
			}
		}
	}
}

// TestPackedRefusesWidth: a width outside [1, 8] is refused before
// anything is read, and the error latches.
func TestPackedRefusesWidth(t *testing.T) {
	data := make([]byte, 9*4)
	for _, width := range []int{0, 9, -1, 255} {
		r := &Reader{data: data}
		dst := []uint64{7, 7, 7, 7}
		r.Packed(dst, width)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "width") {
			t.Errorf("width %d: err = %v", width, err)
		}
		if dst[0] != 7 || r.Remaining() != len(data) {
			t.Errorf("width %d: the refused column was read", width)
		}
		if _, ok := (&Reader{data: data}).Column(4, width); ok {
			t.Errorf("width %d: Column accepted", width)
		}
	}
	r := &Reader{data: make([]byte, 7)}
	r.Packed(make([]uint64, 4), 2)
	if r.Err() == nil {
		t.Error("a column longer than the input was read")
	}
}

// TestPackedWidthEight: at width 8 a packed column is the fixed-width
// word layout.
func TestPackedWidthEight(t *testing.T) {
	v := []uint64{1, math.MaxUint64, 1 << 63, 42}
	w := State(nil)
	w.Packed(v, 8)
	fixed := State(nil)
	fixed.FixedU64s(v)
	if !bytes.Equal(w.Bytes(), fixed.Bytes()) {
		t.Fatalf("width-8 column % x, words % x", w.Bytes(), fixed.Bytes())
	}
	if got := binary.LittleEndian.Uint64(w.Bytes()[8:]); got != math.MaxUint64 {
		t.Fatalf("entry 1 reads %d", got)
	}
}
