package sparse

import (
	"math/rand"
	"reflect"
	"testing"

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
	restored := &Recovery{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
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
	wire, err := client.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.SubRemote(wire); err != nil {
		t.Fatal(err)
	}
	diff, err := server.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int64{3: -1, 4: -1, 5: 1, 6: 1}
	if !reflect.DeepEqual(diff, want) {
		t.Errorf("sync diff = %v, want %v", diff, want)
	}
}

func TestSubRemoteRejectsForeign(t *testing.T) {
	a := NewRecovery(rand.New(rand.NewSource(1)), 8, 1<<16)
	b := NewRecovery(rand.New(rand.NewSource(2)), 8, 1<<16)
	wire, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SubRemote(wire); err == nil {
		t.Error("expected rejection of foreign hash functions")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	r := &Recovery{}
	for _, data := range [][]byte{nil, {1, 2, 3}, []byte("SRxxxxxxxxxxxxxxxxxxxxxxxxxxx")} {
		if err := r.UnmarshalBinary(data); err == nil {
			t.Errorf("accepted garbage %v", data)
		}
	}
	// Truncated valid prefix.
	good, _ := NewRecovery(rand.New(rand.NewSource(3)), 4, 1<<10).MarshalBinary()
	if err := r.UnmarshalBinary(good[:len(good)-5]); err == nil {
		t.Error("accepted truncated data")
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
