package l1

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// strictStream builds a strict-turnstile alpha-property stream: inserts
// followed by partial deletions, never driving any coordinate negative.
func strictStream(rng *rand.Rand, n uint64, inserts int, alpha float64) (*stream.Stream, stream.Vector) {
	s := &stream.Stream{N: n}
	counts := make(map[uint64]int64)
	for i := 0; i < inserts; i++ {
		id := uint64(rng.Int63n(int64(n)))
		counts[id]++
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: 1})
	}
	if alpha > 1 {
		for id, c := range counts {
			del := int64(float64(c) * (1 - 1/alpha))
			for k := int64(0); k < del; k++ {
				s.Updates = append(s.Updates, stream.Update{Index: id, Delta: -1})
			}
		}
	}
	return s, s.Materialize()
}

// TestExactRegime: while the clock estimate stays below base^2 only
// level 0 is live and the estimate is exact for strict streams.
func TestExactRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewExactClock(rng, 1<<20)
	a.Update(1, 500)
	a.Update(2, 300)
	a.Update(1, -200)
	if got := a.Estimate(); got != 600 {
		t.Errorf("exact-regime estimate = %v, want 600", got)
	}
}

// TestAccuracyUnderSampling reproduces Theorem 6's (1 +- eps) estimate on
// strict alpha-property streams once sampling is active.
func TestAccuracyUnderSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, v := strictStream(rng, 512, 120000, 2)
	want := float64(v.L1())
	ok := 0
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		a := New(rng, 64)
		for _, u := range s.Updates {
			a.Update(u.Index, u.Delta)
		}
		got := a.Estimate()
		if math.Abs(got-want) < 0.35*want {
			ok++
		}
	}
	if ok < reps*3/5 {
		t.Errorf("estimate within 35%% only %d/%d times (want %.0f)", ok, reps, want)
	}
}

// TestExactClockTighter: with the exact clock (ablation AB3) the level
// schedule is deterministic, and accuracy should be at least as good as
// the Morris-clocked version on the same workload.
func TestExactClockTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, v := strictStream(rng, 512, 120000, 2)
	want := float64(v.L1())
	morrisHits, exactHits := 0, 0
	const reps = 15
	for rep := 0; rep < reps; rep++ {
		am := New(rng, 64)
		ae := NewExactClock(rng, 64)
		for _, u := range s.Updates {
			am.Update(u.Index, u.Delta)
			ae.Update(u.Index, u.Delta)
		}
		if math.Abs(am.Estimate()-want) < 0.35*want {
			morrisHits++
		}
		if math.Abs(ae.Estimate()-want) < 0.35*want {
			exactHits++
		}
	}
	if exactHits < morrisHits-4 {
		t.Errorf("exact clock (%d hits) much worse than Morris clock (%d hits)", exactHits, morrisHits)
	}
	if exactHits < reps*3/5 {
		t.Errorf("exact-clock accuracy too low: %d/%d", exactHits, reps)
	}
}

// TestAtMostTwoLevels: the interval schedule never keeps more than two
// counter pairs (Figure 4 stores I_j and I_{j+1} only).
func TestAtMostTwoLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(rng, 16)
	for i := 0; i < 200000; i++ {
		a.Update(uint64(i%100), 1)
		if a.LiveLevels() > 2 {
			t.Fatalf("%d levels live at unit %d", a.LiveLevels(), a.Units())
		}
	}
}

// TestSpaceLogarithmicInStream: SpaceBits must not scale with m — the
// Theorem 6 claim O(log(alpha/eps) + log log n).
func TestSpaceLogarithmicInStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	run := func(m int) int64 {
		a := New(rng, 64)
		for i := 0; i < m; i++ {
			a.Update(uint64(i%100), 1)
		}
		return a.SpaceBits()
	}
	small := run(20000)
	big := run(1280000)
	if float64(big) > 1.6*float64(small) {
		t.Errorf("SpaceBits grew %d -> %d across 64x stream growth", small, big)
	}
	// Against a naive exact counter, the whole structure is tiny.
	if big > 512 {
		t.Errorf("SpaceBits = %d, want well under 512 bits", big)
	}
}

// TestCountersStaySmall: the per-level counters hold O(base^2 * psi)
// samples, far below m.
func TestCountersStaySmall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := New(rng, 32)
	const m = 500000
	for i := 0; i < m; i++ {
		a.Update(1, 1)
	}
	if a.maxCount > m/10 {
		t.Errorf("counter reached %d on an m=%d stream; sampling broken", a.maxCount, m)
	}
}

// TestUnbiased: averaged over repetitions the estimator centers on L1.
func TestUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trueL1 = 40000
	var sum float64
	const reps = 40
	for rep := 0; rep < reps; rep++ {
		a := New(rng, 32)
		for i := 0; i < trueL1; i++ {
			a.Update(uint64(i%64), 1)
		}
		sum += a.Estimate()
	}
	mean := sum / reps
	if math.Abs(mean-trueL1) > 0.15*trueL1 {
		t.Errorf("mean estimate %.0f, want %d +- 15%%", mean, trueL1)
	}
}

func TestEmptyEstimate(t *testing.T) {
	a := New(rand.New(rand.NewSource(8)), 16)
	if a.Estimate() != 0 {
		t.Error("empty stream should estimate 0")
	}
}

func TestRecommendedBase(t *testing.T) {
	b1 := RecommendedBase(2, 0.2, 0.1, 1<<20)
	b2 := RecommendedBase(8, 0.2, 0.1, 1<<20)
	if b2 <= b1 {
		t.Error("base should grow with alpha")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RecommendedBase(1, 0, 0.1, 10)
}

func TestNewPanicsOnSmallBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(rand.New(rand.NewSource(9)), 2)
}

func TestNewGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewGeneral(rng, 64, 16, 4, 64, 8)
	for i := 0; i < 10000; i++ {
		g.Update(uint64(i%32), 1)
	}
	got := g.Estimate()
	if got < 2000 || got > 50000 {
		t.Errorf("general estimator = %.0f, want near 10000", got)
	}
}

func BenchmarkUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := New(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Update(uint64(i%1000), 1)
	}
}

// BenchmarkUpdateColumns times unit updates with two SAMPLED levels
// live (base 16, warmed past 16^2, so every update flips two coins),
// per item and per column batch.
func BenchmarkUpdateColumns(b *testing.B) {
	us := make([]stream.Update, 4096)
	for i := range us {
		us[i] = stream.Update{Index: uint64(i % 1000), Delta: 1 - 2*int64(i%5/4)}
	}
	for _, mode := range []string{"scalar", "columns"} {
		b.Run(mode, func(b *testing.B) {
			a := New(rand.New(rand.NewSource(11)), 16)
			a.Update(0, 1<<20)
			if js := liveSet(a); len(js) != 2 || js[0] < 1 {
				b.Fatalf("live levels %v, want two sampled ones", js)
			}
			batch := core.GetBatch()
			defer core.PutBatch(batch)
			batch.LoadUpdates(us)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "columns" {
					a.UpdateColumns(batch)
					continue
				}
				for _, u := range us {
					a.Update(u.Index, u.Delta)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(us)), "ns/update")
		})
	}
}
