package sketch

import (
	"math/rand"
	"testing"

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
	restored := &CountSketch{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
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
	cs := &CountSketch{}
	for _, data := range [][]byte{nil, {9}, []byte("CSgarbagegarbagegarbagegarbagegar")} {
		if err := cs.UnmarshalBinary(data); err == nil {
			t.Errorf("accepted garbage of length %d", len(data))
		}
	}
	good, _ := NewCountSketch(rand.New(rand.NewSource(4)), 2, 8).MarshalBinary()
	if err := cs.UnmarshalBinary(good[:len(good)-3]); err == nil {
		t.Error("accepted truncated data")
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
