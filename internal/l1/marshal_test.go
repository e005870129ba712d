package l1

import (
	"math/rand"
	"testing"

	"repro/internal/sample"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestAlphaEstimatorUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func() *AlphaEstimator { return New(rand.New(rand.NewSource(2)), 64) }
	a := fresh()
	a.Update(1, 5)
	data, _ := a.MarshalBinary()
	if err := wire.Fill(nil, fresh()); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-1], fresh()); err == nil {
		t.Error("accepted truncated payload")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 42 // Morris v above 63
	if err := wire.Fill(bad, fresh()); err == nil {
		t.Error("accepted a Morris exponent past 63")
	}
}

// TestAppendBinaryMatchesMarshalBinary: the estimator obeys the wire
// nesting rule under either clock.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	for _, a := range []*AlphaEstimator{
		New(rand.New(rand.NewSource(1)), 1<<16),
		NewExactClock(rand.New(rand.NewSource(1)), 1<<16),
	} {
		for i := uint64(0); i < 500; i++ {
			a.Update(i, 3)
		}
		wiretest.CheckAppend(t, a)
	}
}

// TestCopiesSeedTheirGeneratorLazily: a CloneInto or UnmarshalBinary of
// an estimator with sampled levels live builds no generator until the
// copy draws, and then the one it was seeded with — updating a copy
// seeded late and one seeded at once leaves equal bytes.
func TestCopiesSeedTheirGeneratorLazily(t *testing.T) {
	build := func() *AlphaEstimator {
		a := New(rand.New(rand.NewSource(5)), 4)
		for _, u := range wiretest.SignedUnits(3000, true) {
			a.Update(u.Index, u.Delta)
		}
		return a
	}
	blob := wiretest.MustMarshal(t, build())
	restore := func() *AlphaEstimator {
		return wiretest.Restore(t, New(rand.New(rand.NewSource(5)), 4), blob)
	}
	seed := func(a *AlphaEstimator) { a.rng.Get() }
	work := func(a *AlphaEstimator) {
		for _, u := range wiretest.SignedUnits(3000, false) {
			a.Update(u.Index, u.Delta)
		}
	}
	// A generator built at once from the word a copy drew: the source's
	// next, or the payload's hash.
	seedWith := func(w int64) func(*AlphaEstimator) {
		return func(a *AlphaEstimator) { *a.rng = *sample.Wrap(rand.New(rand.NewSource(w))) }
	}
	wiretest.CheckLazySeeding(t, "CloneInto", func() *AlphaEstimator { return build().CloneInto(nil) }, seed, seedWith(build().rng.Get().Int63()), work)
	wiretest.CheckLazySeeding(t, "UnmarshalBinary", restore, seed, seedWith(wire.Seed(blob)), work)
}
