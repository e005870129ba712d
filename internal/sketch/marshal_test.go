package sketch

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestCountSketchMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cs := NewCountSketch(rng, 5, 64)
	for i := uint64(0); i < 500; i++ {
		cs.Update(i, int64(i%7)-3)
	}
	data, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, NewCountSketch(rand.New(rand.NewSource(1)), 5, 64), data)
	for i := uint64(0); i < 500; i++ {
		if restored.Query(i) != cs.Query(i) {
			t.Fatalf("query %d differs after round trip", i)
		}
	}
	if restored.SpaceBits() != cs.SpaceBits() {
		t.Errorf("SpaceBits differs: %d vs %d", restored.SpaceBits(), cs.SpaceBits())
	}
}

func TestCountSketchUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func() *CountSketch { return NewCountSketch(rand.New(rand.NewSource(4)), 2, 8) }
	good := wiretest.MustMarshal(t, fresh())
	for _, data := range [][]byte{nil, {9}, good[:len(good)-3], append(good, 0)} {
		if err := wire.Fill(data, fresh()); err == nil {
			t.Errorf("accepted a %d-byte state (the shape's is %d)", len(data), len(good))
		}
	}
}

// TestAppendBinaryMatchesMarshalBinary: the sketch obeys the wire
// nesting rule, states its length exactly and pays for one buffer.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	cs := NewCountSketch(rand.New(rand.NewSource(1)), 5, 512)
	for i := uint64(0); i < 500; i++ {
		cs.Update(i, int64(i%7)-3)
	}
	wiretest.CheckAppend(t, cs)
	wiretest.CheckGrowsOnce(t, cs)
}

// TestCountersPackAtEveryByteBoundary: the counters' high width is
// the byte width of the widest zigzagged one — on each side of every
// byte boundary, negative counters on the odd values; the rest fit a
// byte, so it is patched into a byte-wide column — and they round trip.
func TestCountersPackAtEveryByteBoundary(t *testing.T) {
	fresh := func() *CountSketch { return NewCountSketch(rand.New(rand.NewSource(3)), 5, 64) }
	for _, zz := range []uint64{255, 256, 65535, 65536, 1<<56 - 1, 1 << 56} {
		cs := fresh()
		for i, v := range cs.flat {
			cs.flat[i] = v + int64(i%7) - 3
		}
		cs.flat[len(cs.flat)-1] = wire.Unzigzag(zz)
		data := wiretest.MustMarshal(t, cs)
		if want := byte(wire.ByteWidth(zz)<<4 | 1); data[8] != want || len(data) != cs.EncodedLen() {
			t.Fatalf("counter %d: %d bytes at widths % x, want %x in %d", cs.flat[len(cs.flat)-1], len(data), data[8], want, cs.EncodedLen())
		}
		restored := wiretest.Restore(t, fresh(), data)
		if !slices.Equal(restored.flat, cs.flat) {
			t.Fatalf("counter %d: the counters did not round trip", cs.flat[len(cs.flat)-1])
		}
	}
}
