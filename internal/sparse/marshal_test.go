package sparse

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRecovery(rng, 16, 1<<20)
	want := map[uint64]int64{5: 3, 999: -7, 123456: 11}
	for x, d := range want {
		r.Update(x, d)
	}
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, NewRecovery(rand.New(rand.NewSource(1)), 16, 1<<20), data)
	got, err := restored.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip decode = %v, want %v", got, want)
	}
	// The restored sketch remains usable.
	restored.Update(777, 2)
	got, err = restored.Decode()
	if err != nil || got[777] != 2 {
		t.Errorf("restored sketch not updatable: %v %v", got, err)
	}
}

// TestRemoteSyncExchange plays the RDC protocol: the client serializes
// its sketch of the old file; the server subtracts it from a sketch of
// the new file (same seeds) and decodes exactly the changed chunks.
func TestRemoteSyncExchange(t *testing.T) {
	seed := int64(7)
	oldFile := map[uint64]int64{1: 1, 2: 1, 3: 1, 4: 1}
	newFile := map[uint64]int64{1: 1, 2: 1, 5: 1, 6: 1} // chunks 3,4 -> 5,6

	// Both sides derive the same hash functions from a shared seed.
	client := NewRecovery(rand.New(rand.NewSource(seed)), 8, 1<<16)
	server := NewRecovery(rand.New(rand.NewSource(seed)), 8, 1<<16)
	for x, d := range oldFile {
		client.Update(x, d)
	}
	for x, d := range newFile {
		server.Update(x, d)
	}
	server.Sub(wiretest.Restore(t, server.Sibling(), wiretest.MustMarshal(t, client)))
	diff, err := server.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int64{3: -1, 4: -1, 5: 1, 6: 1}
	if !reflect.DeepEqual(diff, want) {
		t.Errorf("sync diff = %v, want %v", diff, want)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func() *Recovery { return NewRecovery(rand.New(rand.NewSource(3)), 4, 1<<10) }
	good := wiretest.MustMarshal(t, fresh())
	for _, data := range [][]byte{nil, {1, 2, 3}, good[:len(good)-5], append(good, 0)} {
		if err := wire.Fill(data, fresh()); err == nil {
			t.Errorf("accepted a %d-byte state (the shape's is %d)", len(data), len(good))
		}
	}
}

// TestAppendBinaryMatchesMarshalBinary: the sketch obeys the wire
// nesting rule, states its length exactly and pays for one buffer.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	r := NewRecovery(rand.New(rand.NewSource(1)), 256, 1<<20)
	for x := uint64(0); x < 100; x++ {
		r.Update(x*977, int64(x)-50)
	}
	wiretest.CheckAppend(t, r)
	wiretest.CheckGrowsOnce(t, r)
}

// TestCountsPackAtEveryByteBoundary: the count column's high width is
// the byte width of its widest zigzagged count — on each side of every
// byte boundary, negative counts on the odd values; the few nonzero
// cells are patched into a byte-wide column — and it round trips.
func TestCountsPackAtEveryByteBoundary(t *testing.T) {
	fresh := func() *Recovery { return NewRecovery(rand.New(rand.NewSource(3)), 16, 1<<32) }
	for _, zz := range []uint64{255, 256, 65535, 65536, 1<<56 - 1, 1 << 56} {
		count := wire.Unzigzag(zz)
		r := fresh()
		r.Update(12345, count)
		r.Update(777, -count/3)
		data := wiretest.MustMarshal(t, r)
		if want := byte(wire.ByteWidth(zz)<<4 | 1); data[8] != want || len(data) != r.EncodedLen() {
			t.Fatalf("count %d: %d bytes at widths % x, want %x in %d", count, len(data), data[8], want, r.EncodedLen())
		}
		restored := wiretest.Restore(t, fresh(), data)
		if !reflect.DeepEqual(restored.cells, r.cells) || restored.maxCount != r.maxCount {
			t.Fatalf("count %d: the cells did not round trip", count)
		}
	}
}
