package bounded

// One benchmark per experiment: every Figure 1 row
// (the paper's central table), every constructive figure (2-8), the
// Appendix A algorithm, the Section 8 adversarial instance, and the
// design ablations. Each benchmark
//
//   - runs a fixed seeded workload once to measure the guarantee the
//     paper states for that row (reported via b.ReportMetric: err/*,
//     bits/* — "alpha" is this paper's algorithm, "base" the
//     unbounded-deletion baseline), and
//   - times the alpha-property structure's update path (ns/op).
//
// cmd/bdbench prints the same comparisons as human-readable tables.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cauchy"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/heavy"
	"repro/internal/inner"
	"repro/internal/l0"
	"repro/internal/l1"
	"repro/internal/morris"
	"repro/internal/sampler"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/support"

	"repro/internal/csss"
)

const (
	benchN     = 1 << 16
	benchAlpha = 8.0
	benchEps   = 0.05
	benchSeed  = 42
)

// benchHHStream is the shared Figure-1 heavy hitters workload: zipf
// bounded-deletion stream with the target alpha.
func benchHHStream() (*stream.Stream, stream.Vector) {
	s := gen.BoundedDeletion(gen.Config{
		N: benchN, Items: 60000, Alpha: benchAlpha, Zipf: 1.5, Seed: benchSeed,
	})
	return s, s.Materialize()
}

func feedAll(s *stream.Stream, up func(uint64, int64)) {
	for _, u := range s.Updates {
		up(u.Index, u.Delta)
	}
}

// metrics accumulates the guarantee measurements of one benchmark; they
// are reported after the timed loop because b.ResetTimer clears any
// previously reported values.
type metrics map[string]float64

// timeUpdates times the update path of `up` over the stream's updates,
// then attaches the collected metrics. Allocations are reported so the
// zero-allocation steady-state contract of the update pipeline is
// checked on every benchmark run.
func timeUpdates(b *testing.B, s *stream.Stream, up func(uint64, int64), m metrics) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := s.Updates[i%len(s.Updates)]
		up(u.Index, u.Delta)
	}
	b.StopTimer()
	for k, v := range m {
		b.ReportMetric(v, k)
	}
}

// benchBatchSize is the ingest batch width used by the *Batch
// benchmarks — large enough to amortize per-call overhead, small enough
// to model a network read's worth of updates.
const benchBatchSize = 256

// timeBatches times the batched ingest path: ns/op remains
// per-update so numbers are directly comparable with timeUpdates.
func timeBatches(b *testing.B, s *stream.Stream, apply func(*core.Batch), m metrics) {
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		for off := 0; off < len(s.Updates) && done < b.N; off += benchBatchSize {
			end := off + benchBatchSize
			if end > len(s.Updates) {
				end = len(s.Updates)
			}
			if take := b.N - done; end-off > take {
				end = off + take
			}
			core.UpdateBatch(apply, s.Updates[off:end])
			done += end - off
		}
	}
	b.StopTimer()
	for k, v := range m {
		b.ReportMetric(v, k)
	}
}

// BenchmarkFig1HeavyHittersStrict — Figure 1 row 1: eps-HH, strict
// turnstile. alpha algorithm vs dense Count-Sketch baseline.
func BenchmarkFig1HeavyHittersStrict(b *testing.B) {
	m := metrics{}
	s, v := benchHHStream()
	want := v.HeavyHitters(benchEps)
	rng := rand.New(rand.NewSource(benchSeed))

	a := heavy.NewAlphaL1(rng, heavy.AlphaL1Params{N: benchN, Eps: benchEps, Mode: heavy.Strict, Alpha: benchAlpha})
	feedAll(s, a.Update)
	base := heavy.NewCountSketchHH(rng, benchN, benchEps, heavy.Strict, 8, 7)
	feedAll(s, base.Update)

	m["recall/alpha"] = core.Recall(a.HeavyHitters(), want)
	m["recall/base"] = core.Recall(base.HeavyHitters(), want)
	m["bits/alpha"] = float64(a.SpaceBits())
	m["bits/base"] = float64(base.SpaceBits())

	fresh := heavy.NewAlphaL1(rng, heavy.AlphaL1Params{N: benchN, Eps: benchEps, Mode: heavy.Strict, Alpha: benchAlpha})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig1HeavyHittersStrictBatch — the same structure fed through
// the batched ingest path (UpdateBatch): candidate tracking refreshes
// once per distinct index per batch instead of once per update.
func BenchmarkFig1HeavyHittersStrictBatch(b *testing.B) {
	s, _ := benchHHStream()
	rng := rand.New(rand.NewSource(benchSeed))
	fresh := heavy.NewAlphaL1(rng, heavy.AlphaL1Params{N: benchN, Eps: benchEps, Mode: heavy.Strict, Alpha: benchAlpha})
	timeBatches(b, s, fresh.UpdateColumns, metrics{})
}

// BenchmarkFig1HeavyHittersGeneral — Figure 1 row 2: eps-HH, general
// turnstile (constant-factor Cauchy L1 scale).
func BenchmarkFig1HeavyHittersGeneral(b *testing.B) {
	m := metrics{}
	s, v := benchHHStream()
	want := v.HeavyHitters(benchEps)
	rng := rand.New(rand.NewSource(benchSeed))

	a := heavy.NewAlphaL1(rng, heavy.AlphaL1Params{N: benchN, Eps: benchEps, Mode: heavy.General, Alpha: benchAlpha})
	feedAll(s, a.Update)
	base := heavy.NewCountSketchHH(rng, benchN, benchEps, heavy.General, 8, 7)
	feedAll(s, base.Update)

	m["recall/alpha"] = core.Recall(a.HeavyHitters(), want)
	m["recall/base"] = core.Recall(base.HeavyHitters(), want)
	m["bits/alpha"] = float64(a.SpaceBits())
	m["bits/base"] = float64(base.SpaceBits())

	fresh := heavy.NewAlphaL1(rng, heavy.AlphaL1Params{N: benchN, Eps: benchEps, Mode: heavy.General, Alpha: benchAlpha})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig1InnerProduct — Figure 1 row 3: inner product, additive
// eps ||f||_1 ||g||_1.
func BenchmarkFig1InnerProduct(b *testing.B) {
	m := metrics{}
	f1, f2 := gen.NetworkPair(gen.Config{N: benchN, Items: 60000, Alpha: 1, Seed: benchSeed}, 0.2)
	vf, vg := f1.Materialize(), f2.Materialize()
	want := float64(vf.Inner(vg))
	norm := float64(vf.L1()) * float64(vg.L1())
	rng := rand.New(rand.NewSource(benchSeed))

	a := inner.New(rng, inner.Params{N: benchN, Eps: 0.1, Base: 1 << 10, Rows: 5})
	feedAll(f1, a.UpdateF)
	feedAll(f2, a.UpdateG)
	bk := sketch.NewCountSketch(rng, 5, 256)
	bk2 := sketch.NewCountSketchWithBuckets(bk.Buckets())
	feedAll(f1, bk.Update)
	feedAll(f2, bk2.Update)

	m["err/alpha"] = math.Abs(a.Estimate()-want) / norm
	m["err/base"] = math.Abs(float64(bk.InnerProduct(bk2))-want) / norm
	m["bits/alpha"] = float64(a.SpaceBits())
	m["bits/base"] = float64(bk.SpaceBits() + bk2.SpaceBits())

	fresh := inner.New(rng, inner.Params{N: benchN, Eps: 0.1, Base: 1 << 10, Rows: 5})
	timeUpdates(b, f1, fresh.UpdateF, m)
}

// BenchmarkFig1L1Strict — Figure 1 row 4: strict turnstile L1
// estimation in O(log(alpha/eps) + loglog n) bits vs a log(n)-bit exact
// counter.
func BenchmarkFig1L1Strict(b *testing.B) {
	m := metrics{}
	s := gen.BoundedDeletion(gen.Config{N: 512, Items: 200000, Alpha: benchAlpha, Seed: benchSeed})
	want := float64(s.Materialize().L1())
	rng := rand.New(rand.NewSource(benchSeed))

	a := l1.New(rng, 256)
	feedAll(s, a.Update)
	// The baseline "algorithm" is an exact counter: log2(m) bits.
	baseBits := float64(64)

	m["err/alpha"] = core.RelErr(a.Estimate(), want)
	m["bits/alpha"] = float64(a.SpaceBits())
	m["bits/base"] = baseBits

	fresh := l1.New(rng, 256)
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig1L1General — Figure 1 row 5: general turnstile L1,
// sampled Cauchy sketches vs dense Cauchy sketches.
func BenchmarkFig1L1General(b *testing.B) {
	m := metrics{}
	s := gen.BoundedDeletion(gen.Config{N: 256, Items: 150000, Alpha: 2, Seed: benchSeed})
	want := float64(s.Materialize().L1())
	rng := rand.New(rand.NewSource(benchSeed))

	a := cauchy.NewSampledSketch(rng, 192, 32, 6, 128, 10)
	feedAll(s, a.Update)
	base := cauchy.NewSketch(rng, 192, 32, 6)
	feedAll(s, base.Update)

	m["err/alpha"] = core.RelErr(a.Estimate(), want)
	m["err/base"] = core.RelErr(base.LnCosEstimate(), want)
	m["bits/alpha"] = float64(a.SpaceBits())
	m["bits/base"] = float64(base.SpaceBits())

	fresh := cauchy.NewSampledSketch(rng, 192, 32, 6, 128, 10)
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig1L0 — Figure 1 row 6: L0 estimation, windowed Figure 7 vs
// full Figure 6 matrix.
func BenchmarkFig1L0(b *testing.B) {
	m := metrics{}
	s := gen.SensorOccupancy(gen.Config{N: 1 << 40, Items: 30000, Alpha: benchAlpha, Seed: benchSeed})
	want := float64(s.Materialize().L0())
	rng := rand.New(rand.NewSource(benchSeed))

	a := l0.NewEstimator(rng, l0.Params{N: 1 << 40, Eps: 0.1, Windowed: true, Window: l0.RecommendedWindow(benchAlpha, 0.1)})
	feedAll(s, a.Update)
	base := l0.NewEstimator(rng, l0.Params{N: 1 << 40, Eps: 0.1})
	feedAll(s, base.Update)

	m["err/alpha"] = core.RelErr(a.Estimate(), want)
	m["err/base"] = core.RelErr(base.Estimate(), want)
	m["bits/alpha"] = float64(a.SpaceBits())
	m["bits/base"] = float64(base.SpaceBits())
	m["rows/alpha"] = float64(a.LiveRows())
	m["rows/base"] = float64(base.LiveRows())

	fresh := l0.NewEstimator(rng, l0.Params{N: 1 << 40, Eps: 0.1, Windowed: true, Window: l0.RecommendedWindow(benchAlpha, 0.1)})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig1L1Sampling — Figure 1 row 7: L1 sampling TVD and space,
// CSSS-backed vs dense precision sampling.
func BenchmarkFig1L1Sampling(b *testing.B) {
	m := metrics{}
	s := gen.BoundedDeletion(gen.Config{N: 16, Items: 4000, Alpha: 2, Seed: benchSeed})
	v := s.Materialize()
	weights := make(map[uint64]float64, len(v))
	for i, x := range v {
		weights[i] = math.Abs(float64(x))
	}
	rng := rand.New(rand.NewSource(benchSeed))
	p := sampler.Params{N: 16, Eps: 0.25, Alpha: 2, S: 1 << 18}

	counts := make(map[uint64]int)
	var aBits, bBits float64
	const trials = 20 // kept small: this pass re-runs at every b.N probe
	for t := 0; t < trials; t++ {
		sp := sampler.New(rng, p, 16)
		feedAll(s, sp.Update)
		if res, ok := sp.Sample(); ok {
			counts[res.Index]++
		}
		if t == 0 {
			aBits = float64(sp.SpaceBits())
			base := sampler.NewBaseline(rng, p, 16)
			feedAll(s, base.Update)
			bBits = float64(base.SpaceBits())
		}
	}
	m["tvd/alpha"] = core.TVD(counts, weights)
	m["bits/alpha"] = aBits
	m["bits/base"] = bBits

	fresh := sampler.New(rng, p, 4)
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig1SupportSampling — Figure 1 row 8: support sampling,
// windowed Figure 8 vs keep-all-levels baseline.
func BenchmarkFig1SupportSampling(b *testing.B) {
	m := metrics{}
	s := gen.SensorOccupancy(gen.Config{N: 1 << 40, Items: 20000, Alpha: benchAlpha, Seed: benchSeed})
	v := s.Materialize()
	rng := rand.New(rand.NewSource(benchSeed))
	const k = 32

	a := support.NewSampler(rng, support.Params{N: 1 << 40, K: k, Windowed: true, Window: support.RecommendedWindow(benchAlpha)})
	feedAll(s, a.Update)
	base := support.NewSampler(rng, support.Params{N: 1 << 40, K: k})
	feedAll(s, base.Update)

	valid := func(got []uint64) float64 {
		ok := 0
		for _, i := range got {
			if v[i] != 0 {
				ok++
			}
		}
		if len(got) == 0 {
			return 0
		}
		return float64(ok) / float64(len(got))
	}
	ga, gb := a.Recover(), base.Recover()
	m["recovered/alpha"] = float64(len(ga)) / k
	m["recovered/base"] = float64(len(gb)) / k
	m["valid/alpha"] = valid(ga)
	m["valid/base"] = valid(gb)
	m["bits/alpha"] = float64(a.SpaceBits())
	m["bits/base"] = float64(base.SpaceBits())

	fresh := support.NewSampler(rng, support.Params{N: 1 << 40, K: k, Windowed: true, Window: support.RecommendedWindow(benchAlpha)})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig2CSSS — Figure 2 / Theorem 1: CSSS point-query error
// profile under sampling.
func BenchmarkFig2CSSS(b *testing.B) {
	m := metrics{}
	s, v := benchHHStream()
	rng := rand.New(rand.NewSource(benchSeed))
	const k = 32
	sk := csss.New(rng, csss.Params{Rows: 7, K: k, S: 1 << 14})
	feedAll(s, sk.Update)

	var worst float64
	for _, e := range v.TopK(100) {
		if err := math.Abs(sk.Query(e.Index) - float64(e.Value)); err > worst {
			worst = err
		}
	}
	bound := 2 * (v.ErrK2(k)/math.Sqrt(k) + float64(s.UnitLength())*math.Sqrt(2.0/float64(1<<14)))
	m["errOverBound"] = worst / bound
	m["bits/alpha"] = float64(sk.SpaceBits())

	fresh := csss.New(rng, csss.Params{Rows: 7, K: k, S: 1 << 14})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig3AlphaL1Sampler — Figure 3 / Theorem 5: sampler success
// rate and estimate quality.
func BenchmarkFig3AlphaL1Sampler(b *testing.B) {
	m := metrics{}
	s := gen.BoundedDeletion(gen.Config{N: 64, Items: 6000, Alpha: 2, Seed: benchSeed})
	v := s.Materialize()
	rng := rand.New(rand.NewSource(benchSeed))
	p := sampler.Params{N: 64, Eps: 0.25, Alpha: 2, S: 1 << 18}

	succ, estOK := 0, 0
	const trials = 16 // kept small: this pass re-runs at every b.N probe
	for t := 0; t < trials; t++ {
		sp := sampler.New(rng, p, 16)
		feedAll(s, sp.Update)
		if res, ok := sp.Sample(); ok {
			succ++
			if truth := float64(v[res.Index]); truth != 0 && math.Abs(res.Estimate-truth) < 0.5*truth {
				estOK++
			}
		}
	}
	m["successRate"] = float64(succ) / trials
	if succ > 0 {
		m["estWithin50pct"] = float64(estOK) / float64(succ)
	}

	fresh := sampler.New(rng, p, 4)
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig3AlphaL1SamplerBatch — the Figure 3 sampler fed through
// UpdateBatch: the distinct-index candidate refresh is computed once
// and shared across the parallel copies.
func BenchmarkFig3AlphaL1SamplerBatch(b *testing.B) {
	s := gen.BoundedDeletion(gen.Config{N: 64, Items: 6000, Alpha: 2, Seed: benchSeed})
	rng := rand.New(rand.NewSource(benchSeed))
	p := sampler.Params{N: 64, Eps: 0.25, Alpha: 2, S: 1 << 18}
	fresh := sampler.New(rng, p, 4)
	timeBatches(b, s, fresh.UpdateColumns, metrics{})
}

// BenchmarkFig4AlphaL1Estimator — Figure 4 / Theorem 6.
func BenchmarkFig4AlphaL1Estimator(b *testing.B) {
	m := metrics{}
	s := gen.BoundedDeletion(gen.Config{N: 512, Items: 200000, Alpha: 2, Seed: benchSeed})
	want := float64(s.Materialize().L1())
	rng := rand.New(rand.NewSource(benchSeed))
	errs := make([]float64, 0, 15)
	var bits float64
	for t := 0; t < 15; t++ {
		a := l1.New(rng, 64)
		feedAll(s, a.Update)
		errs = append(errs, core.RelErr(a.Estimate(), want))
		bits = float64(a.SpaceBits())
	}
	m["medianRelErr"] = core.Median(errs)
	m["bits/alpha"] = bits

	fresh := l1.New(rng, 64)
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig5CauchyL1 — Figure 5 / Theorem 7 baseline.
func BenchmarkFig5CauchyL1(b *testing.B) {
	m := metrics{}
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 60000, Alpha: 4, Seed: benchSeed})
	want := float64(s.Materialize().L1())
	rng := rand.New(rand.NewSource(benchSeed))
	sk := cauchy.NewSketch(rng, 256, 32, 6)
	feedAll(s, sk.Update)
	m["relErr"] = core.RelErr(sk.LnCosEstimate(), want)
	m["bits/base"] = float64(sk.SpaceBits())

	fresh := cauchy.NewSketch(rng, 256, 32, 6)
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig6KNWL0 — Figure 6 / Theorem 9 baseline.
func BenchmarkFig6KNWL0(b *testing.B) {
	m := metrics{}
	s := gen.SensorOccupancy(gen.Config{N: 1 << 30, Items: 30000, Alpha: 4, Seed: benchSeed})
	want := float64(s.Materialize().L0())
	rng := rand.New(rand.NewSource(benchSeed))
	e := l0.NewEstimator(rng, l0.Params{N: 1 << 30, Eps: 0.1})
	feedAll(s, e.Update)
	m["relErr"] = core.RelErr(e.Estimate(), want)
	m["bits/base"] = float64(e.SpaceBits())

	fresh := l0.NewEstimator(rng, l0.Params{N: 1 << 30, Eps: 0.1})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig7AlphaL0 — Figure 7 / Theorem 10.
func BenchmarkFig7AlphaL0(b *testing.B) {
	m := metrics{}
	s := gen.SensorOccupancy(gen.Config{N: 1 << 30, Items: 30000, Alpha: benchAlpha, Seed: benchSeed})
	want := float64(s.Materialize().L0())
	rng := rand.New(rand.NewSource(benchSeed))
	win := l0.RecommendedWindow(benchAlpha, 0.1)
	e := l0.NewEstimator(rng, l0.Params{N: 1 << 30, Eps: 0.1, Windowed: true, Window: win})
	feedAll(s, e.Update)
	m["relErr"] = core.RelErr(e.Estimate(), want)
	m["rows"] = float64(e.LiveRows())
	m["bits/alpha"] = float64(e.SpaceBits())

	fresh := l0.NewEstimator(rng, l0.Params{N: 1 << 30, Eps: 0.1, Windowed: true, Window: win})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkFig8SupportSampler — Figure 8 / Theorem 11.
func BenchmarkFig8SupportSampler(b *testing.B) {
	m := metrics{}
	s := gen.SensorOccupancy(gen.Config{N: 1 << 30, Items: 20000, Alpha: benchAlpha, Seed: benchSeed})
	v := s.Materialize()
	rng := rand.New(rand.NewSource(benchSeed))
	const k = 32
	sp := support.NewSampler(rng, support.Params{N: 1 << 30, K: k, Windowed: true, Window: support.RecommendedWindow(benchAlpha)})
	feedAll(s, sp.Update)
	got := sp.Recover()
	valid := 0
	for _, i := range got {
		if v[i] != 0 {
			valid++
		}
	}
	m["recoveredOverK"] = float64(len(got)) / k
	if len(got) > 0 {
		m["validFrac"] = float64(valid) / float64(len(got))
	}
	m["bits/alpha"] = float64(sp.SpaceBits())

	fresh := support.NewSampler(rng, support.Params{N: 1 << 30, K: k, Windowed: true, Window: support.RecommendedWindow(benchAlpha)})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkAppendixL2HH — Appendix A: L2 heavy hitters on alpha-property
// streams.
func BenchmarkAppendixL2HH(b *testing.B) {
	m := metrics{}
	rng := rand.New(rand.NewSource(benchSeed))
	s := &stream.Stream{N: benchN}
	r2 := rand.New(rand.NewSource(benchSeed + 1))
	for i := 0; i < 30000; i++ {
		id := uint64(r2.Intn(4000))
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: 2})
		if i%2 == 0 {
			s.Updates = append(s.Updates, stream.Update{Index: id, Delta: -2})
		}
	}
	s.Updates = append(s.Updates, stream.Update{Index: benchN - 1, Delta: 1500})
	v := s.Materialize()
	want := v.L2HeavyHitters(0.25)

	h := heavy.NewAlphaL2(rng, benchN, 0.25, 2)
	feedAll(s, h.Update)
	m["recall"] = core.Recall(h.HeavyHitters(), want)
	m["bits/alpha"] = float64(h.SpaceBits())

	fresh := heavy.NewAlphaL2(rng, benchN, 0.25, 2)
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkLowerBoundAdversary — Section 8: run the alpha-property HH
// algorithm on the augmented-indexing instance behind Theorem 12.
func BenchmarkLowerBoundAdversary(b *testing.B) {
	m := metrics{}
	inst := gen.AdversarialInd(benchSeed, benchN, 0.05, 1000, 2)
	rng := rand.New(rand.NewSource(benchSeed))
	h := heavy.NewAlphaL1(rng, heavy.AlphaL1Params{N: benchN, Eps: 0.05, Mode: heavy.Strict, Alpha: 1000 * 1000})
	feedAll(inst.Stream, h.Update)
	got := h.HeavyHitters()
	m["recall"] = core.Recall(got, inst.Answer)
	m["precision"] = core.Precision(got, inst.Answer)
	m["bits/alpha"] = float64(h.SpaceBits())

	fresh := heavy.NewAlphaL1(rng, heavy.AlphaL1Params{N: benchN, Eps: 0.05, Mode: heavy.Strict, Alpha: 1000 * 1000})
	timeUpdates(b, inst.Stream, fresh.Update, m)
}

// BenchmarkAblationCSSSvsCountSketch — AB1: CSSS vs plain Count-Sketch
// at equal dimensions, error and space on the same stream.
func BenchmarkAblationCSSSvsCountSketch(b *testing.B) {
	m := metrics{}
	s, v := benchHHStream()
	rng := rand.New(rand.NewSource(benchSeed))
	const k = 32
	a := csss.New(rng, csss.Params{Rows: 7, K: k, S: 1 << 13})
	feedAll(s, a.Update)
	d := sketch.NewCountSketch(rng, 7, 6*k)
	feedAll(s, d.Update)

	var errA, errD float64
	top := v.TopK(50)
	for _, e := range top {
		errA += math.Abs(a.Query(e.Index) - float64(e.Value))
		errD += math.Abs(float64(d.Query(e.Index)) - float64(e.Value))
	}
	m["meanAbsErr/csss"] = errA / float64(len(top))
	m["meanAbsErr/dense"] = errD / float64(len(top))
	m["bits/csss"] = float64(a.SpaceBits())
	m["bits/dense"] = float64(d.SpaceBits())

	fresh := csss.New(rng, csss.Params{Rows: 7, K: k, S: 1 << 13})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkAblationL0Window — AB2: Figure 7 window width sweep; narrow
// windows lose the queried rows, wide windows waste space.
func BenchmarkAblationL0Window(b *testing.B) {
	m := metrics{}
	s := gen.SensorOccupancy(gen.Config{N: 1 << 30, Items: 30000, Alpha: benchAlpha, Seed: benchSeed})
	want := float64(s.Materialize().L0())
	rng := rand.New(rand.NewSource(benchSeed))
	for _, win := range []int{4, 12, 24} {
		e := l0.NewEstimator(rng, l0.Params{N: 1 << 30, Eps: 0.1, Windowed: true, Window: win})
		feedAll(s, e.Update)
		m["relErr/w"+itoa(win)] = core.RelErr(e.Estimate(), want)
		m["bits/w"+itoa(win)] = float64(e.SpaceBits())
	}
	fresh := l0.NewEstimator(rng, l0.Params{N: 1 << 30, Eps: 0.1, Windowed: true, Window: 12})
	timeUpdates(b, s, fresh.Update, m)
}

// BenchmarkAblationMorris — AB3: Morris clock vs exact clock in the
// Figure 4 estimator.
func BenchmarkAblationMorris(b *testing.B) {
	m := metrics{}
	s := gen.BoundedDeletion(gen.Config{N: 512, Items: 200000, Alpha: 2, Seed: benchSeed})
	want := float64(s.Materialize().L1())
	rng := rand.New(rand.NewSource(benchSeed))
	var mErrs, eErrs []float64
	var mBits, eBits float64
	for t := 0; t < 11; t++ {
		am := l1.New(rng, 64)
		ae := l1.NewExactClock(rng, 64)
		feedAll(s, am.Update)
		feedAll(s, ae.Update)
		mErrs = append(mErrs, core.RelErr(am.Estimate(), want))
		eErrs = append(eErrs, core.RelErr(ae.Estimate(), want))
		mBits, eBits = float64(am.SpaceBits()), float64(ae.SpaceBits())
	}
	m["relErr/morris"] = core.Median(mErrs)
	m["relErr/exact"] = core.Median(eErrs)
	m["bits/morris"] = mBits
	m["bits/exact"] = eBits

	// Morris counter throughput on its own.
	c := morris.New(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Increment()
	}
	b.StopTimer()
	for k, v := range m {
		b.ReportMetric(v, k)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkSnapshotCodec times the wire codec alone on the three
// structures with the biggest tables, warmed on the Figure 1 stream:
// MB/s of encoded bytes and, with -benchmem, B/op against the blob size
// reported beside it (one buffer out; the decoded tables in, up to 8
// times a packed column). Beside the blob size sits the structure's
// SpaceBits()/8, which the blob tracks now that counts travel packed.
func BenchmarkSnapshotCodec(b *testing.B) {
	cfg := Config{N: 1 << 20, Eps: 0.02, Alpha: benchAlpha, Seed: benchSeed}
	s, _ := benchHHStream()
	for _, tc := range []struct {
		name  string
		build func() (Sketch, error)
	}{
		{"HeavyHitters", func() (Sketch, error) { return NewHeavyHitters(cfg) }},
		{"L0Estimator", func() (Sketch, error) { return NewL0Estimator(cfg) }},
		{"SupportSampler", func() (Sketch, error) { return NewSupportSampler(cfg) }},
	} {
		sk, err := tc.build()
		if err != nil {
			b.Fatal(err)
		}
		sk.UpdateBatch(s.Updates)
		blob, err := sk.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		space := float64(sk.SpaceBits()) / 8
		b.Run("marshal/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for b.Loop() {
				if _, err := sk.MarshalBinary(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "bytes/blob")
			b.ReportMetric(space, "space-B/blob")
		})
		b.Run("unmarshal/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for b.Loop() {
				if _, err := UnmarshalSketch(blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "bytes/blob")
			b.ReportMetric(space, "space-B/blob")
		})
	}
}
