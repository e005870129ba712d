package csss

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/wire"
)

// zipfStream builds a bounded-deletion stream: zipfian inserts followed
// by deletion of a (1 - 1/alpha) fraction of each item's mass.
func zipfStream(rng *rand.Rand, n uint64, inserts int, alpha float64) (*stream.Stream, stream.Vector) {
	s := &stream.Stream{N: n}
	z := rand.NewZipf(rng, 1.4, 1, n-1)
	counts := make(map[uint64]int64)
	for i := 0; i < inserts; i++ {
		id := z.Uint64()
		counts[id]++
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: 1})
	}
	if alpha > 1 {
		keep := 1 / alpha // keep fraction of mass so m <= ~2*alpha*L1... ; delete (1-2/alpha)
		for id, c := range counts {
			del := int64(float64(c) * (1 - keep))
			for k := int64(0); k < del; k++ {
				s.Updates = append(s.Updates, stream.Update{Index: id, Delta: -1})
			}
		}
	}
	return s, s.Materialize()
}

func feed(sk *Sketch, s *stream.Stream) {
	for _, u := range s.Updates {
		sk.Update(u.Index, u.Delta)
	}
}

// feedColumns ingests us through the batch path: plan, then
// UpdateColumns.
func feedColumns(sk *Sketch, us []stream.Update) {
	core.UpdateBatch(func(b *core.Batch) { sk.UpdateColumns(b) }, us)
}

// TestExactWhenUnsampled: while t <= 2S the sketch samples everything and
// must agree exactly with a plain Count-Sketch; on a sparse vector with
// wide rows it recovers frequencies exactly.
func TestExactWhenUnsampled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sk := New(rng, Params{Rows: 7, K: 32, S: 1 << 20})
	v := stream.Vector{3: 11, 500: -7, 90000: 2}
	for i, x := range v {
		sk.Update(i, x)
	}
	if sk.SampleExponent() != 0 {
		t.Fatalf("p = %d before any halving", sk.SampleExponent())
	}
	for i, x := range v {
		if got := sk.Query(i); got != float64(x) {
			t.Errorf("Query(%d) = %v, want %d", i, got, x)
		}
	}
	if got := sk.Query(42); got != 0 {
		t.Errorf("Query(absent) = %v", got)
	}
}

// TestHalvingSchedule: p tracks ceil(log2(t/S)) - 1 and the sampling rate
// stays within [S/(2t), 2S/t].
func TestHalvingSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const S = 1024
	sk := New(rng, Params{Rows: 1, K: 1, S: S})
	for step := 0; step < 20*S; step++ {
		sk.Update(uint64(step%64), 1)
		tt := sk.Position()
		p := sk.SampleExponent()
		rate := math.Ldexp(1, -p)
		if tt > 2*S {
			if rate < float64(S)/(2*float64(tt)) || rate > 2*float64(S)/float64(tt) {
				t.Fatalf("t=%d p=%d: rate %v outside [S/2t, 2S/t]", tt, p, rate)
			}
		} else if p != 0 {
			t.Fatalf("halved too early: t=%d p=%d", tt, p)
		}
	}
}

// TestExponentAtIsTheSchedule: a sketch fed from empty samples at
// ExponentAt of its position after every update, and ExponentAt stays
// finite at the largest position.
func TestExponentAtIsTheSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const S = 16
	sk := New(rng, Params{Rows: 1, K: 1, S: S})
	for step := 0; step < 300*S; step++ {
		sk.Update(uint64(step%64), 1)
		if p, want := sk.SampleExponent(), sk.ExponentAt(sk.Position()); p != want {
			t.Fatalf("t=%d: exponent %d, ExponentAt %d", sk.Position(), p, want)
		}
	}
	for _, tc := range []struct {
		t    int64
		want int
	}{{0, 0}, {2 * S, 0}, {2*S + 1, 1}, {4 * S, 1}, {4*S + 1, 2}, {math.MaxInt64, 58}} {
		if got := sk.ExponentAt(tc.t); got != tc.want {
			t.Errorf("ExponentAt(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

// TestRaiseExponent: a raise thins the table one binomial halving per
// level and moves the halving boundary with it, so the sketch halves
// next at its own position S*2^(p+1) + 1 and its encoding restores; a
// raise to the exponent it has, or below, changes nothing.
func TestRaiseExponent(t *testing.T) {
	const S = 64
	sk := New(rand.New(rand.NewSource(5)), Params{Rows: 3, K: 4, S: S})
	for i := 0; i < 100; i++ {
		sk.Update(uint64(i%7), 1)
	}
	mass := func() (m int64) {
		for _, c := range sk.table {
			m += c[0] + c[1]
		}
		return m
	}
	before := mass()
	sk.RaiseExponent(3)
	if sk.SampleExponent() != 3 || sk.nextHalf != S<<4+1 || sk.scale != 8 {
		t.Fatalf("raised to p=%d, nextHalf %d, scale %v", sk.SampleExponent(), sk.nextHalf, sk.scale)
	}
	if after := mass(); after >= before || after > before/2 {
		t.Fatalf("three halvings kept %d of %d sampled units", after, before)
	}
	kept := mass()
	sk.RaiseExponent(2)
	sk.RaiseExponent(3)
	if sk.SampleExponent() != 3 || mass() != kept {
		t.Fatal("a raise to the exponent held or below moved the sketch")
	}
	for sk.Position() < S<<4 {
		sk.Update(1, 1)
	}
	if sk.SampleExponent() != 3 {
		t.Fatalf("halved on its own before S*2^4 + 1: p=%d at t=%d", sk.SampleExponent(), sk.Position())
	}
	sk.Update(1, 1)
	if sk.SampleExponent() != 4 {
		t.Fatalf("did not halve at S*2^4 + 1: p=%d", sk.SampleExponent())
	}
	blob, _ := sk.MarshalBinary()
	back := New(rand.New(rand.NewSource(5)), sk.params)
	if err := wire.Fill(blob, back); err != nil {
		t.Fatalf("a raised sketch does not restore: %v", err)
	}
	if !sk.ExponentFits(55) || sk.ExponentFits(56) || sk.ExponentFits(-1) {
		t.Fatal("ExponentFits disagrees with Fill's bound at S = 64")
	}
	if huge := New(rand.New(rand.NewSource(5)), Params{Rows: 1, K: 1, S: 1 << 40}); huge.ExponentFits(22) || !huge.ExponentFits(21) {
		t.Fatal("ExponentFits lets S*2^(p+1) leave int64")
	}
}

// TestPositionTracksUnitLength: big deltas expand into units.
func TestPositionTracksUnitLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sk := New(rng, Params{Rows: 3, K: 4, S: 1 << 12})
	sk.Update(1, 500)
	sk.Update(2, -300)
	if sk.Position() != 800 {
		t.Errorf("Position = %d, want 800", sk.Position())
	}
}

// TestUnbiasedUnderSampling: with m >> S, E[Query(i)] = f_i. Averages
// repeated independent sketches of a two-item stream.
func TestUnbiasedUnderSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const reps = 60
	const fi = 2000
	var sum float64
	for rep := 0; rep < reps; rep++ {
		sk := New(rng, Params{Rows: 5, K: 8, S: 256})
		sk.Update(7, fi)    // target
		sk.Update(9, 3000)  // mass elsewhere
		sk.Update(9, -2900) // deletions: alpha-property stream
		sum += sk.Query(7)
	}
	mean := sum / reps
	if math.Abs(mean-fi) > 0.15*fi {
		t.Errorf("mean estimate %.1f, want %d +- 15%%", mean, fi)
	}
}

// TestTheorem1ErrorBound: on a bounded-deletion zipf workload with heavy
// sampling, point-query error stays within the Theorem 1 form
// 2(Err^k_2/sqrt(k) + eps_eff*||f||_1) where eps_eff reflects the actual
// sample size: eps_eff ~ alpha*sqrt(2/S).
func TestTheorem1ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const alpha = 4
	s, v := zipfStream(rng, 1<<14, 60000, alpha)
	m := float64(s.UnitLength())
	l1 := float64(v.L1())
	if m/l1 > 2*alpha+1 {
		t.Fatalf("workload alpha %f exceeds target", m/l1)
	}
	const S = 1 << 14
	const k = 16
	sk := New(rng, Params{Rows: 9, K: k, S: S})
	feed(sk, s)
	if sk.SampleExponent() == 0 {
		t.Fatal("test needs actual sampling: increase stream size")
	}
	errk := v.ErrK2(k)
	epsEff := math.Sqrt(2/float64(S)) * (m / l1) // alpha * sqrt(2/S)
	bound := 2 * (errk/math.Sqrt(k) + 3*epsEff*l1)
	viol := 0
	checked := 0
	for _, e := range v.TopK(200) {
		checked++
		if got := sk.Query(e.Index); math.Abs(got-float64(e.Value)) > bound {
			viol++
		}
	}
	if viol > checked/20 {
		t.Errorf("%d/%d point queries broke bound %.1f", viol, checked, bound)
	}
}

// TestWeightedUpdates: weight w scales the estimate linearly.
func TestWeightedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sk := New(rng, Params{Rows: 7, K: 16, S: 1 << 20, FixedPointBits: 12})
	sk.UpdateWeighted(5, 40, 2.5)
	got := sk.Query(5)
	if math.Abs(got-100) > 0.2 {
		t.Errorf("weighted query = %v, want 100", got)
	}
	// Fractional weights resolve at fixed-point precision.
	sk.UpdateWeighted(6, 1, 0.125)
	if got := sk.Query(6); math.Abs(got-0.125) > 0.01 {
		t.Errorf("fractional weight query = %v, want 0.125", got)
	}
}

func TestWeightPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sk := New(rng, Params{Rows: 1, K: 1, S: 8})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nonpositive weight")
		}
	}()
	sk.UpdateWeighted(1, 1, 0)
}

// TestCounterMassBounded: after the stream, per-row sampled mass is O(S),
// the invariant that makes counters O(log S) bits.
func TestCounterMassBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const S = 2048
	sk := New(rng, Params{Rows: 5, K: 8, S: S})
	for i := 0; i < 500000; i++ {
		sk.Update(uint64(i%1000), 1)
	}
	for r := 0; r < sk.Rows(); r++ {
		var mass int64
		for c := uint64(0); c < sk.cols; c++ {
			cl := sk.table[uint64(r)*sk.cols+c]
			mass += cl[0] + cl[1]
		}
		if mass > 8*S {
			t.Errorf("row %d holds %d samples, want O(S)=O(%d)", r, mass, S)
		}
	}
	// Space: counters should be ~log(S) bits wide, far below log(m)*cells.
	if sk.maxCount > 64*S {
		t.Errorf("maxCount %d too large", sk.maxCount)
	}
}

// TestSpaceBitsSublinearInStream: growing the stream 64x while holding S
// fixed should grow SpaceBits only additively (log factor), not linearly.
func TestSpaceBitsSublinearInStream(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const S = 1024
	run := func(m int) int64 {
		sk := New(rng, Params{Rows: 5, K: 8, S: S})
		for i := 0; i < m; i++ {
			sk.Update(uint64(i%100), 1)
		}
		return sk.SpaceBits()
	}
	small := run(10000)
	big := run(640000)
	if float64(big) > 1.5*float64(small) {
		t.Errorf("SpaceBits grew from %d to %d; should be nearly flat", small, big)
	}
}

// TestBigDeltaMatchesUnits: Update(i, D) has the same distribution as D
// unit updates; compare means across repetitions.
func TestBigDeltaMatchesUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const D = 5000
	const reps = 40
	var sumBig, sumUnit float64
	for rep := 0; rep < reps; rep++ {
		a := New(rng, Params{Rows: 3, K: 4, S: 512})
		a.Update(1, D)
		sumBig += a.Query(1)
		b := New(rng, Params{Rows: 3, K: 4, S: 512})
		for j := 0; j < D; j++ {
			b.Update(1, 1)
		}
		sumUnit += b.Query(1)
	}
	if math.Abs(sumBig-sumUnit)/reps > 0.1*D {
		t.Errorf("big-delta mean %.0f vs unit mean %.0f differ", sumBig/reps, sumUnit/reps)
	}
}

// TestTailEstimatorBounds reproduces Lemma 5's sandwich on a workload.
func TestTailEstimatorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, v := zipfStream(rng, 1<<12, 40000, 4)
	const k = 8
	te := NewTailEstimator(rng, Params{Rows: 9, K: k, S: 1 << 13})
	for _, u := range s.Updates {
		te.Update(u.Index, u.Delta)
	}
	cands := make([]uint64, 0, len(v))
	for i := range v {
		cands = append(cands, i)
	}
	l1 := float64(v.L1())
	m := float64(s.UnitLength())
	epsEff := math.Sqrt(2.0/float64(1<<13)) * (m / l1)
	vEst, yhat := te.Estimate(cands, l1, epsEff)
	errk := v.ErrK2(k)
	if vEst < errk {
		t.Errorf("tail estimate %.1f below Err^k_2 = %.1f", vEst, errk)
	}
	upper := 45*math.Sqrt(k)*epsEff*l1 + 20*errk
	if vEst > upper {
		t.Errorf("tail estimate %.1f above Lemma 5 upper bound %.1f", vEst, upper)
	}
	if len(yhat) != k {
		t.Errorf("yhat has %d entries, want %d", len(yhat), k)
	}
}

func TestRecommendedS(t *testing.T) {
	if RecommendedS(1, 0.5, 1024) < 1024 {
		t.Error("RecommendedS below floor")
	}
	a := RecommendedS(2, 0.1, 1<<20)
	b := RecommendedS(4, 0.1, 1<<20)
	if b <= a {
		t.Error("RecommendedS should grow with alpha")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for eps out of range")
		}
	}()
	RecommendedS(1, 2, 10)
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(rand.New(rand.NewSource(12)), Params{Rows: 0, K: 1, S: 1})
}

// BenchmarkUpdateColumns pins one sampling regime per sub-benchmark:
// p halvings are forced up front and S is large enough that no b.N
// reaches the next boundary, so every iteration ingests one batch of
// unit updates at rate 2^-p — through per-item Update (scalar) or
// through UpdateColumns (columns). The table is the benchmark's
// (7 rows x 2400 columns); ns/update is the figure to compare. Keys are
// uniform over 2^20 (every batch all-distinct: the survivor sweep at
// every p > 0) or zipfian (d/n, reported, is what the coalescing rule
// reads).
func BenchmarkUpdateColumns(b *testing.B) {
	for _, skew := range []float64{0, 1.05, 1.2} {
		for _, p := range []int{0, 1, 2, 3, 4, 8, 10} {
			for _, n := range []int{1024, 4096} {
				batch, name := skewedBatch(15, n, skew), fmt.Sprintf("p=%d/len=%d", p, n)
				if skew != 0 {
					name += fmt.Sprintf("/zipf=%v", skew)
				}
				keys, _ := core.Distinct(batch)
				for _, path := range []string{"scalar", "columns"} {
					b.Run(name+"/"+path, func(b *testing.B) {
						sk := New(rand.New(rand.NewSource(13)), Params{Rows: 7, K: 400, S: 1 << 40})
						for sk.p < p {
							sk.halveOnce()
						}
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if path == "columns" {
								sk.UpdateColumns(batch)
								continue
							}
							for j, k := range batch.Idx {
								sk.Update(k, batch.Delta[j])
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/update")
						b.ReportMetric(float64(len(keys))/float64(n), "d/n")
						if sk.p != p {
							b.Fatalf("regime drifted: p = %d, want %d", sk.p, p)
						}
					})
				}
				core.PutBatch(batch)
			}
		}
	}
}

// skewedBatch draws n unit updates, one deletion in eight, over keys
// uniform in [0, 2^20) (skew 0) or zipfian with the given exponent.
func skewedBatch(seed int64, n int, skew float64) *core.Batch {
	rng := rand.New(rand.NewSource(seed))
	key := func() uint64 { return uint64(rng.Intn(1 << 20)) }
	if skew != 0 {
		key = rand.NewZipf(rng, skew, 1, 1<<20-1).Uint64
	}
	batch := core.GetBatch()
	for i := 0; i < n; i++ {
		batch.Append(key(), int64(1-2*(i%8/7)))
	}
	return batch
}

func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	sk := New(rng, Params{Rows: 7, K: 32, S: 1 << 15})
	for i := 0; i < 100000; i++ {
		sk.Update(uint64(i%4096), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Query(uint64(i % 4096))
	}
}

// TestLinearityUnsampled: in the unsampled regime (t <= 2S) CSSS is an
// exact Count-Sketch, so feeding f then -f returns every query to zero.
func TestLinearityUnsampled(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	sk := New(rng, Params{Rows: 5, K: 8, S: 1 << 20})
	updates := make([]stream.Update, 200)
	for i := range updates {
		updates[i] = stream.Update{Index: uint64(rng.Intn(64)), Delta: int64(rng.Intn(9) - 4)}
	}
	for _, u := range updates {
		sk.Update(u.Index, u.Delta)
	}
	for _, u := range updates {
		sk.Update(u.Index, -u.Delta)
	}
	for i := uint64(0); i < 64; i++ {
		if got := sk.Query(i); got != 0 {
			t.Fatalf("Query(%d) = %v after cancellation", i, got)
		}
	}
}

// TestQueryStableAcrossCalls: Query must not mutate state.
func TestQueryStableAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sk := New(rng, Params{Rows: 5, K: 8, S: 256})
	for i := 0; i < 10000; i++ {
		sk.Update(uint64(i%50), 1)
	}
	for i := uint64(0); i < 50; i++ {
		a := sk.Query(i)
		b := sk.Query(i)
		if a != b {
			t.Fatalf("Query(%d) unstable: %v vs %v", i, a, b)
		}
	}
}
