package inner

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sample"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func buildEstimator(seed int64) *Estimator {
	e := New(rand.New(rand.NewSource(seed)), Params{N: 1 << 10, Eps: 0.25, Base: 1 << 20, Rows: 3})
	for i := uint64(0); i < 200; i++ {
		e.UpdateF(i%40, 2)
		e.UpdateG(i%40, 1)
	}
	return e
}

func TestEstimatorMarshalRoundTrip(t *testing.T) {
	e := buildEstimator(41)
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, New(rand.New(rand.NewSource(41)), Params{N: 1 << 10, Eps: 0.25, Base: 1 << 20, Rows: 3}), data)
	if restored.Estimate() != e.Estimate() {
		t.Fatalf("Estimate differs: %v vs %v", restored.Estimate(), e.Estimate())
	}
	if restored.SpaceBits() != e.SpaceBits() {
		t.Errorf("SpaceBits differs")
	}
	// The restored estimator keeps ingesting identically in the exact
	// (rate-1) regime.
	restored.UpdateF(3, 5)
	e.UpdateF(3, 5)
	if restored.Estimate() != e.Estimate() {
		t.Fatalf("post-restore ingest diverged")
	}
}

// TestEstimatorMergeExactInRateOneRegime: the satellite Merge — both
// stream sketches are linear, so same-seed instances over split streams
// merge into exactly the single-instance state while level 0 is the only
// live level.
func TestEstimatorMergeExactInRateOneRegime(t *testing.T) {
	const seed = 43
	whole := New(rand.New(rand.NewSource(seed)), Params{N: 1 << 10, Eps: 0.25, Base: 1 << 20, Rows: 3})
	partA := New(rand.New(rand.NewSource(seed)), Params{N: 1 << 10, Eps: 0.25, Base: 1 << 20, Rows: 3})
	partB := New(rand.New(rand.NewSource(seed)), Params{N: 1 << 10, Eps: 0.25, Base: 1 << 20, Rows: 3})
	for i := uint64(0); i < 300; i++ {
		whole.UpdateF(i%50, 1)
		whole.UpdateG(i%50, 2)
		if i%2 == 0 {
			partA.UpdateF(i%50, 1)
			partA.UpdateG(i%50, 2)
		} else {
			partB.UpdateF(i%50, 1)
			partB.UpdateG(i%50, 2)
		}
	}
	if err := partA.Merge(partB); err != nil {
		t.Fatal(err)
	}
	if partA.Estimate() != whole.Estimate() {
		t.Fatalf("merged %v != single-instance %v", partA.Estimate(), whole.Estimate())
	}
	if partA.f.t != whole.f.t || partA.g.t != whole.g.t {
		t.Fatalf("merged positions differ from single-instance")
	}
}

func TestEstimatorMergeRejectsForeign(t *testing.T) {
	a := buildEstimator(44)
	b := buildEstimator(45) // different seed -> different wiring
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of foreign estimator accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merge of nil accepted")
	}
}

func TestEstimatorCloneIsDeep(t *testing.T) {
	e := buildEstimator(46)
	c := e.CloneInto(nil)
	if c.Estimate() != e.Estimate() {
		t.Fatalf("clone answers differently")
	}
	c.UpdateF(1, 1000)
	if c.f.t == e.f.t {
		t.Fatal("clone shares position state with original")
	}
}

func TestInnerUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func() *Estimator {
		return New(rand.New(rand.NewSource(47)), Params{N: 1 << 10, Eps: 0.25, Base: 1 << 20, Rows: 3})
	}
	data, _ := buildEstimator(47).MarshalBinary()
	if err := wire.Fill(nil, fresh()); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-7], fresh()); err == nil {
		t.Error("accepted truncated payload")
	}
	bad := append([]byte(nil), data...)
	bad[7] = 0x80 // side f's position goes negative
	if err := wire.Fill(bad, fresh()); err == nil {
		t.Error("accepted a negative position")
	}
}

// TestAppendBinaryMatchesMarshalBinary: the estimator obeys the wire
// nesting rule and pays for one buffer, with two levels live on a side.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	e := New(rand.New(rand.NewSource(41)), Params{N: 1 << 10, Eps: 0.05, Base: 4, Rows: 5})
	for i := uint64(0); i < 200; i++ {
		e.UpdateF(i%40, 2)
		e.UpdateG(i%40, 1)
	}
	if e.f.win.Len() < 2 {
		t.Fatalf("side f has %d live levels, want at least 2", e.f.win.Len())
	}
	wiretest.CheckAppend(t, e)
	wiretest.CheckGrowsOnce(t, e)
}

// TestCopiesSeedTheirGeneratorLazily: a CloneInto or UnmarshalBinary of
// an estimator with sampled levels live on both sides builds no
// generator until the copy draws, and then the one it was seeded with —
// updating a copy seeded late and one seeded at once leaves equal bytes.
func TestCopiesSeedTheirGeneratorLazily(t *testing.T) {
	feed := func(e *Estimator, n int) {
		for _, u := range wiretest.SignedUnits(n, true) {
			e.UpdateF(u.Index, u.Delta)
			e.UpdateG(u.Index+1, u.Delta)
		}
	}
	build := func() *Estimator {
		e := New(rand.New(rand.NewSource(5)), Params{N: 1 << 10, Eps: 0.25, Base: 4})
		feed(e, 300)
		return e
	}
	blob := wiretest.MustMarshal(t, build())
	restore := func() *Estimator {
		return wiretest.Restore(t, New(rand.New(rand.NewSource(5)), Params{N: 1 << 10, Eps: 0.25, Base: 4}), blob)
	}
	seed := func(e *Estimator) { e.rng.Get() }
	work := func(e *Estimator) { feed(e, 300) }
	// A generator built at once from the word a copy drew: the source's
	// next, or the payload's hash.
	seedWith := func(w int64) func(*Estimator) {
		return func(e *Estimator) { *e.rng = *sample.Wrap(rand.New(rand.NewSource(w))) }
	}
	wiretest.CheckLazySeeding(t, "CloneInto", func() *Estimator { return build().CloneInto(nil) }, seed, seedWith(build().rng.Get().Int63()), work)
	wiretest.CheckLazySeeding(t, "UnmarshalBinary", restore, seed, seedWith(wire.Seed(blob)), work)
}

// TestBinsPackAtEveryByteBoundary: each level's bins take the byte
// width of its widest zigzagged bin as their high width — on each side
// of every byte boundary, negative bins on the odd values — and round
// trip.
func TestBinsPackAtEveryByteBoundary(t *testing.T) {
	params := Params{N: 1 << 10, Eps: 0.25, Base: 1 << 20, Rows: 3}
	for _, zz := range []uint64{255, 256, 65535, 65536, 1<<56 - 1, 1 << 56} {
		e := buildEstimator(41)
		_, lv := e.f.win.Oldest()
		last := lv.bins[len(lv.bins)-1]
		last[len(last)-1] = wire.Unzigzag(zz)
		data := wiretest.MustMarshal(t, e)
		// f's position and peak, its one level's count, index and start.
		if got := int(data[16+4+4+8] >> 4); got != wire.ByteWidth(zz) {
			t.Fatalf("bin %d: f's level packs at high width %d, want %d", last[len(last)-1], got, wire.ByteWidth(zz))
		}
		if got := len(data); got != e.EncodedLen() {
			t.Fatalf("bin %d: %d bytes, EncodedLen %d", last[len(last)-1], got, e.EncodedLen())
		}
		restored := wiretest.Restore(t, New(rand.New(rand.NewSource(41)), params), data)
		_, back := restored.f.win.Oldest()
		for r := range lv.bins {
			if !slices.Equal(back.bins[r], lv.bins[r]) {
				t.Fatalf("bin %d: row %d did not round trip", last[len(last)-1], r)
			}
		}
	}
}
