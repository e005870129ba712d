package heavy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/sweep"
	"repro/internal/topk"
)

// hhStream builds a strict-turnstile alpha-property stream with planted
// heavy hitters above eps*L1 and bulk noise below (eps/2)*L1.
func hhStream(rng *rand.Rand, n uint64, eps float64, alpha float64) (*stream.Stream, stream.Vector) {
	s := &stream.Stream{N: n}
	// Noise: spread mass thinly.
	const noiseItems = 2000
	for i := 0; i < noiseItems; i++ {
		id := uint64(rng.Int63n(int64(n)))
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: 1 + rng.Int63n(8)})
	}
	v := s.Materialize()
	base := float64(v.L1())
	// Plant 3 strong heavies at about 4*eps of the final L1.
	heavyMass := int64(4 * eps * base / (1 - 12*eps))
	for h := 0; h < 3; h++ {
		id := uint64(int64(n) - 1 - int64(h))
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: heavyMass})
	}
	// Deletions to reach the target alpha without touching heavies.
	if alpha > 1 {
		for id, c := range v {
			del := int64(float64(c) * (1 - 1/alpha))
			if del > 0 {
				s.Updates = append(s.Updates, stream.Update{Index: id, Delta: -del})
			}
		}
	}
	return s, s.Materialize()
}

// verify checks recall of eps-heavy items and rejection of sub-eps/2
// items.
func verify(t *testing.T, name string, got []uint64, v stream.Vector, eps float64) (missed, spurious int) {
	t.Helper()
	gotSet := make(map[uint64]bool)
	for _, i := range got {
		gotSet[i] = true
	}
	l1 := float64(v.L1())
	for i, x := range v {
		f := float64(x)
		if f < 0 {
			f = -f
		}
		if f >= eps*l1 && !gotSet[i] {
			missed++
		}
	}
	for _, i := range got {
		f := float64(v[i])
		if f < 0 {
			f = -f
		}
		if f < eps/2*l1 {
			spurious++
		}
	}
	return missed, spurious
}

// Figure 1 row 1 over a seed sweep: each seed draws its own planted
// stream (hhStream) and its own structure, fed through the columnar
// path (so every read re-estimates off the tracker's cached columns),
// and a seed fails when the answer misses an eps-heavy item or — strict
// mode only — returns one below eps/2. The tests hold the structure to a
// per-seed failure rate of delta = 0.1 at a false-alarm rate of 1e-3
// (the single-seed tests they replace allowed 2 of 8 strict and 3 of 8
// general); the honest structure fails on none of 300 seeds in either
// mode, and a tracker too small to hold the planted items fails every
// seed.
const (
	fig1Seeds = 32
	fig1Delta = 0.1
	fig1Alarm = 1e-3
)

// fig1Sweep returns the seeds on which the mode's answer failed.
func fig1Sweep(t *testing.T, mode Mode, failed func(missed, spurious int) bool) []int64 {
	const eps = 0.05
	return sweep.Sweep(sweep.Seeds(fig1Seeds), func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, v := hhStream(rng, 1<<16, eps, 4)
		h := NewAlphaL1(rng, AlphaL1Params{N: 1 << 16, Eps: eps, Mode: mode, Alpha: 4})
		core.UpdateBatch(h.UpdateColumns, s.Updates)
		return failed(verify(t, "alpha", h.HeavyHitters(), v, eps))
	})
}

func TestAlphaL1Strict(t *testing.T) {
	failed := fig1Sweep(t, Strict, func(missed, spurious int) bool { return missed > 0 || spurious > 0 })
	if limit := sweep.Threshold(fig1Seeds, fig1Delta, fig1Alarm); len(failed) >= limit {
		t.Errorf("strict alpha HH inexact on %d of %d seeds %v; at delta %g that many fail with probability <= %g",
			len(failed), fig1Seeds, failed, fig1Delta, fig1Alarm)
	}
}

func TestAlphaL1General(t *testing.T) {
	failed := fig1Sweep(t, General, func(missed, _ int) bool { return missed > 0 })
	if limit := sweep.Threshold(fig1Seeds, fig1Delta, fig1Alarm); len(failed) >= limit {
		t.Errorf("general alpha HH missed a heavy item on %d of %d seeds %v; at delta %g that many fail with probability <= %g",
			len(failed), fig1Seeds, failed, fig1Delta, fig1Alarm)
	}
}

func TestCountSketchHHBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const eps = 0.05
	s, v := hhStream(rng, 1<<16, eps, 4)
	h := NewCountSketchHH(rng, 1<<16, eps, Strict, 8, 7)
	for _, u := range s.Updates {
		h.Update(u.Index, u.Delta)
	}
	missed, spurious := verify(t, "cs-baseline", h.HeavyHitters(), v, eps)
	if missed != 0 {
		t.Errorf("baseline missed %d heavy hitters", missed)
	}
	if spurious > 1 {
		t.Errorf("baseline returned %d spurious items", spurious)
	}
}

// TestAlphaSpaceAdvantage: on a long alpha-property stream the CSSS-based
// structure uses narrower counters than the dense baseline at equal
// dimensions — Figure 1 row 1's claim.
func TestAlphaSpaceAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const eps = 0.1
	alphaHH := NewAlphaL1(rng, AlphaL1Params{N: 1 << 16, Eps: eps, Mode: Strict, Alpha: 2, S: 1 << 12})
	baseHH := NewCountSketchHH(rng, 1<<16, eps, Strict, 8, 7)
	for i := 0; i < 400000; i++ {
		id := uint64(i % 256)
		alphaHH.Update(id, 1)
		baseHH.Update(id, 1)
	}
	if alphaHH.SpaceBits() >= baseHH.SpaceBits() {
		t.Errorf("alpha HH space %d >= baseline %d", alphaHH.SpaceBits(), baseHH.SpaceBits())
	}
}

func TestAlphaL2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 1 << 14
	const eps = 0.25
	const alpha = 2.0
	good := 0
	const reps = 8
	for rep := 0; rep < reps; rep++ {
		h := NewAlphaL2(rng, n, eps, alpha)
		tr := stream.NewTracker(n)
		feed := func(i uint64, d int64) {
			h.Update(i, d)
			tr.Update(stream.Update{Index: i, Delta: d})
		}
		// Noise: many small items, half-deleted (alpha ~ 2).
		for i := 0; i < 3000; i++ {
			id := uint64(rng.Int63n(n - 10))
			feed(id, 2)
			if i%2 == 0 {
				feed(id, -2)
			}
		}
		// One strong L2 heavy item.
		feed(n-1, 500)
		got := h.HeavyHitters()
		foundHeavy := false
		falsePos := 0
		l2 := tr.F.L2()
		for _, i := range got {
			fi := float64(tr.F[i])
			if i == n-1 {
				foundHeavy = true
			}
			if fi < 0 {
				fi = -fi
			}
			if fi < eps/2*l2 {
				falsePos++
			}
		}
		if foundHeavy && falsePos == 0 {
			good++
		}
	}
	if good < reps*3/4 {
		t.Errorf("AlphaL2 exact on only %d/%d reps", good, reps)
	}
}

func TestTopTrackerUpdatesEstimates(t *testing.T) {
	tr := topk.New(1) // retains 2
	tr.Offer(1, 10)
	tr.Offer(2, 20)
	tr.Offer(3, 1)   // below the floor: dropped
	tr.Offer(3, 100) // a later, larger estimate evicts the minimum
	keep := map[uint64]bool{}
	for _, i := range tr.Candidates() {
		keep[i] = true
	}
	if !keep[3] || !keep[2] {
		t.Errorf("tracker kept %v, want {2,3}", tr.Candidates())
	}
}

func TestNewPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, f := range []func(){
		func() { NewAlphaL1(rng, AlphaL1Params{N: 10, Eps: 0}) },
		func() { NewCountSketchHH(rng, 10, 1.5, Strict, 0, 0) },
		func() { NewAlphaL2(rng, 10, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkAlphaL1Update(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	h := NewAlphaL1(rng, AlphaL1Params{N: 1 << 20, Eps: 0.05, Mode: Strict, Alpha: 4, S: 1 << 14})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(uint64(i%4096), 1)
	}
}

func BenchmarkCountSketchHHUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	h := NewCountSketchHH(rng, 1<<20, 0.05, Strict, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(uint64(i%4096), 1)
	}
}

// BenchmarkAlphaL1Merge times one pairwise merge of two rate-1
// structures with full candidate trackers (eps 0.01: 800 candidates a
// side): the table add plus the candidate union's re-rank — the step a
// merged view repeats per shard or agent. Both sides are fed in
// batches, as a shard is, so the re-rank reads both trackers' cached
// columns. The receiver's clone is outside the timer.
func BenchmarkAlphaL1Merge(b *testing.B) {
	build := func(offset uint64) *AlphaL1 {
		h := NewAlphaL1(rand.New(rand.NewSource(7)), AlphaL1Params{N: 1 << 20, Eps: 0.01, Mode: Strict, Alpha: 4})
		us := make([]stream.Update, 40_000)
		for i := range us {
			us[i] = stream.Update{Index: offset + uint64(i)%3000, Delta: 1}
		}
		core.UpdateBatch(h.UpdateColumns, us)
		return h
	}
	dst, src := build(0), build(1500)
	var acc *AlphaL1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		acc = dst.CloneInto(acc)
		b.StartTimer()
		if err := acc.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}
