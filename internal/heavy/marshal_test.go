package heavy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func fig1Workload(seed int64) []stream.Update {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.3, Seed: seed})
	return s.Updates
}

func TestAlphaL1MarshalRoundTrip(t *testing.T) {
	for _, mode := range []Mode{Strict, General} {
		p := AlphaL1Params{N: 1 << 12, Eps: 0.05, Mode: mode, Alpha: 4}
		h := NewAlphaL1(rand.New(rand.NewSource(11)), p)
		core.UpdateBatch(h.UpdateColumns, fig1Workload(3))
		data, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := wiretest.Restore(t, NewAlphaL1(rand.New(rand.NewSource(11)), p), data)
		a, b := h.HeavyHitters(), restored.HeavyHitters()
		if len(a) != len(b) {
			t.Fatalf("mode %v: heavy hitters differ: %v vs %v", mode, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("mode %v: heavy hitters differ at %d", mode, i)
			}
		}
		for i := uint64(0); i < 64; i++ {
			if h.Query(i) != restored.Query(i) {
				t.Fatalf("mode %v: query %d differs", mode, i)
			}
		}
		if h.SpaceBits() != restored.SpaceBits() {
			t.Errorf("mode %v: SpaceBits differs", mode)
		}
	}
}

func TestAlphaL2MarshalRoundTrip(t *testing.T) {
	h := NewAlphaL2(rand.New(rand.NewSource(12)), 1<<12, 0.1, 2)
	core.UpdateBatch(h.UpdateColumns, fig1Workload(4))
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, NewAlphaL2(rand.New(rand.NewSource(12)), 1<<12, 0.1, 2), data)
	a, b := h.HeavyHitters(), restored.HeavyHitters()
	if len(a) != len(b) {
		t.Fatalf("heavy hitters differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("heavy hitters differ at %d", i)
		}
	}
	if h.SpaceBits() != restored.SpaceBits() {
		t.Errorf("SpaceBits differs")
	}
}

func TestHeavyUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func(mode Mode) *AlphaL1 {
		return NewAlphaL1(rand.New(rand.NewSource(13)), AlphaL1Params{N: 256, Eps: 0.2, Mode: mode, Alpha: 2})
	}
	h := fresh(Strict)
	h.Update(1, 5)
	data, _ := h.MarshalBinary()
	if err := wire.Fill(nil, fresh(Strict)); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-4], fresh(Strict)); err == nil {
		t.Error("accepted truncated payload")
	}
	// The mode is the constructor's: a strict state is not a general one.
	if err := wire.Fill(data, fresh(General)); err == nil {
		t.Error("a general structure accepted a strict state")
	}
}

// TestAppendBinaryMatchesMarshalBinary: both structures obey the wire
// nesting rule and grow their buffer once for all their components.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	l2 := NewAlphaL2(rand.New(rand.NewSource(12)), 1<<12, 0.1, 2)
	core.UpdateBatch(l2.UpdateColumns, fig1Workload(4))
	cases := []wiretest.Codec{l2}
	for _, mode := range []Mode{Strict, General} {
		h := NewAlphaL1(rand.New(rand.NewSource(11)), AlphaL1Params{N: 1 << 12, Eps: 0.05, Mode: mode, Alpha: 4})
		core.UpdateBatch(h.UpdateColumns, fig1Workload(3))
		cases = append(cases, h)
	}
	for _, m := range cases {
		wiretest.CheckAppend(t, m)
		wiretest.CheckGrowsOnce(t, m)
	}
}
