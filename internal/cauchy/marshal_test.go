package cauchy

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestSketchMarshalRoundTrip(t *testing.T) {
	s := NewSketch(rand.New(rand.NewSource(1)), 16, 8, 4)
	for i := uint64(0); i < 400; i++ {
		s.Update(i, int64(i%9)-4)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, NewSketch(rand.New(rand.NewSource(1)), 16, 8, 4), data)
	if restored.MedianEstimate() != s.MedianEstimate() {
		t.Errorf("MedianEstimate differs: %v vs %v", restored.MedianEstimate(), s.MedianEstimate())
	}
	if restored.LnCosEstimate() != s.LnCosEstimate() {
		t.Errorf("LnCosEstimate differs")
	}
	if restored.SpaceBits() != s.SpaceBits() {
		t.Errorf("SpaceBits differs")
	}
	// Fill raises a crafted peak of 0 to the widest restored counter.
	clear(data[:8])
	low := wiretest.Restore(t, NewSketch(rand.New(rand.NewSource(1)), 16, 8, 4), data)
	for _, v := range low.lv.c {
		if stream.Abs64(v) > low.peak {
			t.Fatalf("restored counter %d above the peak %d", v, low.peak)
		}
	}
	// The restored sketch merges where a clone would.
	peer := NewSketch(rand.New(rand.NewSource(1)), 16, 8, 4)
	peer.Update(3, 2)
	if err := peer.Merge(restored); err != nil {
		t.Fatalf("merge of restored sketch rejected: %v", err)
	}
}

func TestSampledSketchMarshalRoundTrip(t *testing.T) {
	s := NewSampledSketch(rand.New(rand.NewSource(2)), 8, 8, 4, 1<<20, 6)
	for i := uint64(0); i < 300; i++ {
		s.Update(i%64, 1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, NewSampledSketch(rand.New(rand.NewSource(2)), 8, 8, 4, 1<<20, 6), data)
	if restored.t != s.t || restored.win.Len() != s.win.Len() {
		t.Fatalf("state: restored (t=%d, levels=%d), original (t=%d, levels=%d)",
			restored.t, restored.win.Len(), s.t, s.win.Len())
	}
	if restored.Estimate() != s.Estimate() {
		t.Errorf("Estimate differs: %v vs %v", restored.Estimate(), s.Estimate())
	}
	if restored.MedianEstimate() != s.MedianEstimate() {
		t.Errorf("MedianEstimate differs")
	}
	// Rate-1 regime merge is exact: wire-merge must equal clone-merge.
	peerA := NewSampledSketch(rand.New(rand.NewSource(2)), 8, 8, 4, 1<<20, 6)
	peerA.Update(9, 4)
	peerB := peerA.CloneInto(nil)
	if err := peerA.Merge(s.CloneInto(nil)); err != nil {
		t.Fatal(err)
	}
	if err := peerB.Merge(restored); err != nil {
		t.Fatal(err)
	}
	if peerA.Estimate() != peerB.Estimate() {
		t.Fatalf("clone-merge %v != wire-merge %v", peerA.Estimate(), peerB.Estimate())
	}
}

func TestCauchyUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func() *Sketch { return NewSketch(rand.New(rand.NewSource(3)), 4, 4, 4) }
	data, _ := fresh().MarshalBinary()
	if err := wire.Fill(nil, fresh()); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-1], fresh()); err == nil {
		t.Error("accepted truncated payload")
	}
	freshS := func() *SampledSketch { return NewSampledSketch(rand.New(rand.NewSource(4)), 2, 2, 4, 8, 4) }
	ss := freshS()
	ss.Update(1, 1)
	sdata, _ := ss.MarshalBinary()
	if err := wire.Fill(sdata[:len(sdata)-2], freshS()); err == nil {
		t.Error("accepted truncated sampled payload")
	}
	if err := wire.Fill(append(sdata, 0), freshS()); err == nil {
		t.Error("accepted a trailing byte")
	}
}

// TestAppendBinaryMatchesMarshalBinary: both sketches obey the wire
// nesting rule and pay for one buffer, the sampled one with two levels
// live.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	dense := NewSketch(rand.New(rand.NewSource(1)), 256, 64, 4)
	sampled := NewSampledSketch(rand.New(rand.NewSource(2)), 256, 64, 4, 4, 6)
	for i := uint64(0); i < 400; i++ {
		dense.Update(i, int64(i%9)-4)
		sampled.Update(i%64, 1)
	}
	if sampled.win.Len() < 2 {
		t.Fatalf("sampled sketch has %d live levels, want at least 2", sampled.win.Len())
	}
	for _, m := range []wiretest.Codec{dense, sampled} {
		wiretest.CheckAppend(t, m)
		wiretest.CheckGrowsOnce(t, m)
	}
}

// TestCopiesSeedTheirGeneratorLazily: a CloneInto or UnmarshalBinary of
// a sampled sketch with sampled levels live builds no generator until
// the copy draws, and then the one it was seeded with — updating a copy
// seeded late and one seeded at once leaves equal bytes.
func TestCopiesSeedTheirGeneratorLazily(t *testing.T) {
	build := func() *SampledSketch {
		s := NewSampledSketch(rand.New(rand.NewSource(5)), 8, 4, 4, 4, 8)
		for _, u := range wiretest.SignedUnits(300, true) {
			s.Update(u.Index, u.Delta)
		}
		return s
	}
	blob := wiretest.MustMarshal(t, build())
	restore := func() *SampledSketch {
		return wiretest.Restore(t, NewSampledSketch(rand.New(rand.NewSource(5)), 8, 4, 4, 4, 8), blob)
	}
	seed := func(s *SampledSketch) { s.rng.Get() }
	work := func(s *SampledSketch) {
		for _, u := range wiretest.SignedUnits(300, false) {
			s.Update(u.Index, u.Delta)
		}
	}
	// A generator built at once from the word a copy drew: the source's
	// next, or the payload's hash.
	seedWith := func(w int64) func(*SampledSketch) {
		return func(s *SampledSketch) { *s.rng = *sample.Wrap(rand.New(rand.NewSource(w))) }
	}
	wiretest.CheckLazySeeding(t, "CloneInto", func() *SampledSketch { return build().CloneInto(nil) }, seed, seedWith(build().rng.Get().Int63()), work)
	wiretest.CheckLazySeeding(t, "UnmarshalBinary", restore, seed, seedWith(wire.Seed(blob)), work)
}

// TestSampledBlobTracksSpaceBits: with two levels live, the sampled
// sketch travels in at most 1.1·SpaceBits()/8 bytes — its counters pack
// at the width most of them need, where SpaceBits charges every one the
// widest's.
func TestSampledBlobTracksSpaceBits(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 16, Items: 20000, Alpha: 8, Zipf: 1.2, Seed: 3})
	sk := NewSampledSketch(rand.New(rand.NewSource(7)), 192, 32, 6, 256, 10)
	for _, u := range s.Updates {
		sk.Update(u.Index, u.Delta)
	}
	if js := wiretest.LiveSet(sk.win.Each); len(js) != 2 {
		t.Fatalf("live levels %v, want two", js)
	}
	if n, charged := len(wiretest.MustMarshal(t, sk)), sk.SpaceBits()/8; float64(n) > 1.1*float64(charged) {
		t.Errorf("%d-byte blob, SpaceBits()/8 = %d", n, charged)
	}
}
