package sampler

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestSamplerMarshalRoundTrip(t *testing.T) {
	for _, general := range []bool{false, true} {
		p := Params{N: 1 << 10, Eps: 0.25, Alpha: 2, General: general}
		s := New(rand.New(rand.NewSource(21)), p, 4)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			s.Update(uint64(rng.Intn(64)), 1)
		}
		s.Update(5, 100000) // a dominant item most instances should return

		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := wiretest.Restore(t, New(rand.New(rand.NewSource(21)), p, 4), data)
		r1, ok1 := s.Sample()
		r2, ok2 := restored.Sample()
		if ok1 != ok2 || r1 != r2 {
			t.Fatalf("general=%v: Sample differs: (%v,%v) vs (%v,%v)", general, r1, ok1, r2, ok2)
		}
		if s.SpaceBits() != restored.SpaceBits() {
			t.Errorf("general=%v: SpaceBits differs", general)
		}
		// The restored sampler merges where a clone would.
		if err := restored.Merge(s.CloneInto(nil)); err != nil {
			t.Fatalf("general=%v: merge of restored sampler rejected: %v", general, err)
		}
	}
}

func TestSamplerUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func(copies int) *Sampler {
		return New(rand.New(rand.NewSource(22)), Params{N: 256, Eps: 0.3, Alpha: 1}, copies)
	}
	s := fresh(2)
	s.Update(1, 3)
	data, _ := s.MarshalBinary()
	if err := wire.Fill(nil, fresh(2)); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-6], fresh(2)); err == nil {
		t.Error("accepted truncated payload")
	}
	// The copy count is the constructor's: two instances' state does
	// not fill three.
	if err := wire.Fill(data, fresh(3)); err == nil {
		t.Error("three instances accepted the state of two")
	}
}

// TestAppendBinaryMatchesMarshalBinary: the sampler and one of its
// instances obey the wire nesting rule; the sampler pays for one buffer
// in either mode.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	for _, general := range []bool{false, true} {
		s := New(rand.New(rand.NewSource(21)), Params{N: 1 << 10, Eps: 0.25, Alpha: 2, General: general}, 4)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			s.Update(uint64(rng.Intn(64)), 1)
		}
		wiretest.CheckAppend(t, s)
		wiretest.CheckGrowsOnce(t, s)
		wiretest.CheckAppend(t, s.instances[0])
	}
}
