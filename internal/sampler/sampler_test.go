package sampler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/sweep"
)

// strongStream builds a strict-turnstile STRONG alpha-property stream:
// every coordinate keeps at least a 1/alpha fraction of its own traffic
// (Definition 2), which is what Figure 3 assumes.
func strongStream(rng *rand.Rand, n uint64, items int, alpha float64) (*stream.Stream, stream.Vector) {
	s := &stream.Stream{N: n}
	counts := make(map[uint64]int64)
	for i := 0; i < items; i++ {
		id := uint64(rng.Int63n(int64(n)))
		counts[id]++
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: 1})
	}
	if alpha > 1 {
		for id, c := range counts {
			del := int64(float64(c) * (1 - 2/(alpha+1)))
			for k := int64(0); k < del; k++ {
				s.Updates = append(s.Updates, stream.Update{Index: id, Delta: -1})
			}
		}
	}
	return s, s.Materialize()
}

// TestSamplingDistribution: the empirical output distribution is close
// in total variation to |f_i| / ||f||_1 (Theorem 5's guarantee, checked
// at TVD <= 0.15 over a small universe).
func TestSamplingDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 16 // small support keeps the multinomial noise floor low
	s, v := strongStream(rng, n, 4000, 2)
	l1 := float64(v.L1())
	const trials = 300
	counts := make(map[uint64]int)
	fails := 0
	for trial := 0; trial < trials; trial++ {
		sp := New(rng, Params{N: n, Eps: 0.25, S: 1 << 20}, 24)
		for _, u := range s.Updates {
			sp.Update(u.Index, u.Delta)
		}
		res, ok := sp.Sample()
		if !ok {
			fails++
			continue
		}
		counts[res.Index]++
	}
	if fails > trials/4 {
		t.Fatalf("sampler failed %d/%d trials", fails, trials)
	}
	succ := trials - fails
	var tvd float64
	for i, x := range v {
		p := float64(x) / l1
		q := float64(counts[i]) / float64(succ)
		tvd += math.Abs(p - q)
	}
	for i, c := range counts {
		if v[i] == 0 {
			tvd += float64(c) / float64(succ)
			t.Errorf("sampled %d outside support", i)
		}
	}
	tvd /= 2
	if tvd > 0.15 {
		t.Errorf("TVD from L1 distribution = %.3f, want <= 0.15", tvd)
	}
}

// TestEstimateRelativeError: the returned estimate of f_i is within
// O(eps) of the truth.
func TestEstimateRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 64
	s, v := strongStream(rng, n, 4000, 2)
	good, total := 0, 0
	for trial := 0; trial < 60; trial++ {
		sp := New(rng, Params{N: n, Eps: 0.25, S: 1 << 20}, 24)
		for _, u := range s.Updates {
			sp.Update(u.Index, u.Delta)
		}
		res, ok := sp.Sample()
		if !ok {
			continue
		}
		total++
		truth := float64(v[res.Index])
		if truth != 0 && math.Abs(res.Estimate-truth) <= 0.5*math.Abs(truth) {
			good++
		}
	}
	if total == 0 {
		t.Fatal("no successful samples")
	}
	if good < total*4/5 {
		t.Errorf("estimate within 50%% on only %d/%d samples", good, total)
	}
}

// TestBaselineDistribution: the dense baseline samples from the same
// distribution. The universe is kept at 16 items so the empirical
// multinomial noise floor (~ sqrt(support/trials)) stays below the
// asserted band.
func TestBaselineDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 16
	s, v := strongStream(rng, n, 3000, 2)
	l1 := float64(v.L1())
	const trials = 200
	counts := make(map[uint64]int)
	fails := 0
	for trial := 0; trial < trials; trial++ {
		sp := NewBaseline(rng, Params{N: n, Eps: 0.25}, 24)
		for _, u := range s.Updates {
			sp.Update(u.Index, u.Delta)
		}
		res, ok := sp.Sample()
		if !ok {
			fails++
			continue
		}
		counts[res.Index]++
	}
	if fails > trials/4 {
		t.Fatalf("baseline failed %d/%d trials", fails, trials)
	}
	succ := trials - fails
	var tvd float64
	for i, x := range v {
		p := float64(x) / l1
		q := float64(counts[i]) / float64(succ)
		tvd += math.Abs(p - q)
	}
	tvd /= 2
	if tvd > 0.18 {
		t.Errorf("baseline TVD = %.3f, want <= 0.18", tvd)
	}
}

// TestAlphaSpaceFlatInStream: Figure 1 row 7's claim is about counter
// width — the CSSS-backed sampler's space is (near) constant in the
// stream length m, while the dense baseline's counters must grow like
// log m. Compare space growth across a 16x longer stream.
func TestAlphaSpaceFlatInStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := Params{N: 1 << 20, Eps: 0.25, S: 1 << 10, FPBits: 6, WeightCap: 1 << 12}
	run := func(m int) (alphaBits, baseBits int64) {
		a := New(rng, p, 1)
		b := NewBaseline(rng, p, 1)
		for i := 0; i < m; i++ {
			id := uint64(i % 512)
			a.Update(id, 1)
			b.Update(id, 1)
		}
		return a.SpaceBits(), b.SpaceBits()
	}
	aSmall, bSmall := run(100000)
	aBig, bBig := run(1600000)
	aGrowth := aBig - aSmall
	bGrowth := bBig - bSmall
	if bGrowth < 800 {
		t.Errorf("baseline growth %d bits; expected log(m) counter widening", bGrowth)
	}
	if aGrowth > bGrowth/2 {
		t.Errorf("alpha sampler grew %d bits vs baseline %d; should be nearly flat", aGrowth, bGrowth)
	}
}

// TestEmptyStreamFails: sampling an empty stream reports FAIL, never a
// fabricated index.
func TestEmptyStreamFails(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sp := New(rng, Params{N: 1 << 10, Eps: 0.25}, 4)
	if _, ok := sp.Sample(); ok {
		t.Error("sampled from empty stream")
	}
}

func TestParamsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(rand.New(rand.NewSource(6)), Params{N: 10, Eps: 0}, 1)
}

func BenchmarkUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sp := New(rng, Params{N: 1 << 20, Eps: 0.25, S: 1 << 12}, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Update(uint64(i%1024), 1)
	}
}

// TestGeneralModeSamplesNegativeStream — Remark 1: with constant-factor
// r, q estimates the sampler runs on general turnstile streams. The
// stream here has negative coordinates, so the strict counters would be
// wrong; the general mode still samples from |f_i|/||f||_1.
func TestGeneralModeSamplesNegativeStream(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const n = 16
	// f: half the coordinates negative.
	f := map[uint64]int64{}
	for i := uint64(0); i < n; i++ {
		v := int64(50 + rng.Intn(200))
		if i%2 == 0 {
			v = -v
		}
		f[i] = v
	}
	counts := map[uint64]int{}
	fails := 0
	const trials = 80
	for trial := 0; trial < trials; trial++ {
		sp := New(rng, Params{N: n, Eps: 0.25, S: 1 << 20, General: true}, 24)
		for i, v := range f {
			sp.Update(i, v)
		}
		res, ok := sp.Sample()
		if !ok {
			fails++
			continue
		}
		if f[res.Index] == 0 {
			t.Fatalf("sampled %d outside support", res.Index)
		}
		counts[res.Index]++
	}
	if fails > trials/3 {
		t.Fatalf("general-mode sampler failed %d/%d trials", fails, trials)
	}
	// Negative-coordinate items must be sampled too (they carry half the
	// L1 mass).
	neg := 0
	for i, c := range counts {
		if f[i] < 0 {
			neg += c
		}
	}
	succ := trials - fails
	if neg < succ/5 {
		t.Errorf("negative coordinates sampled only %d/%d times", neg, succ)
	}
}

// TestGeneralModeSpaceIncludesEstimators: Remark 1 costs the extra
// Cauchy estimate space.
func TestGeneralModeSpaceIncludesEstimators(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := Params{N: 1 << 10, Eps: 0.25, S: 1 << 12}
	strict := New(rng, p, 1)
	pg := p
	pg.General = true
	general := New(rng, pg, 1)
	strict.Update(1, 5)
	general.Update(1, 5)
	if general.SpaceBits() <= strict.SpaceBits() {
		t.Error("general mode should cost extra estimator space")
	}
}

// TestTheorem19Instance — the L1-sampling lower bound's own instance
// (augmented indexing with one planted heavy item per level, eps = 1/2)
// is decoded by the sampler: the returned index is the planted item.
// The planted item holds 36001/42003 ≈ 6/7 of ||f||_1, so Theorem 5
// (eps = 1/4) returns it with probability at least (3/4)(6/7) ≈ 0.64 per
// successful draw; a miss — a FAIL or another index — is therefore
// charged at most missRate = 0.4 (≈ 0.36 elsewhere, 0.04 for FAILs; 400
// seeds measured 0.03 FAIL and 0.085 elsewhere). Each seed builds its
// own instance and sampler, and the sweep's miss count must stay under
// the Bin(seeds, missRate) tail at a false-alarm rate of 1e-3.
func TestTheorem19Instance(t *testing.T) {
	const (
		seeds    = 32
		missRate = 0.4
		alarm    = 1e-3
	)
	missed := sweep.Sweep(sweep.Seeds(seeds), func(seed int64) bool {
		inst := gen.AdversarialInd(seed, 1<<12, 0.5, 1000, 2)
		if len(inst.Answer) != 1 {
			t.Fatalf("instance should plant a single item, got %d", len(inst.Answer))
		}
		sp := New(rand.New(rand.NewSource(100+seed)), Params{N: 1 << 12, Eps: 0.25, S: 1 << 22, Alpha: 1000}, 16)
		for _, u := range inst.Stream.Updates {
			sp.Update(u.Index, u.Delta)
		}
		res, ok := sp.Sample()
		return !ok || res.Index != inst.Answer[0]
	})
	if limit := sweep.Threshold(seeds, missRate, alarm); len(missed) >= limit {
		t.Errorf("the planted item was missed on %d of %d seeds %v; an honest sampler reaches %d with probability <= %g",
			len(missed), seeds, missed, limit, alarm)
	}
	t.Logf("missed on %d of %d seeds", len(missed), seeds)
}
