package cauchy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// turnstileStream builds a general-turnstile stream with signed noise and
// an alpha-bounded deletion profile.
func turnstileStream(rng *rand.Rand, n uint64, items int, alpha float64) (*stream.Stream, stream.Vector) {
	s := &stream.Stream{N: n}
	for i := 0; i < items; i++ {
		id := uint64(rng.Int63n(int64(n)))
		s.Updates = append(s.Updates, stream.Update{Index: id, Delta: 1})
	}
	if alpha > 1 {
		v := s.Materialize()
		for id, c := range v {
			del := int64(float64(c) * (1 - 1/alpha))
			if del > 0 {
				s.Updates = append(s.Updates, stream.Update{Index: id, Delta: -del})
			}
		}
	}
	return s, s.Materialize()
}

func TestCauchyFromUnitMedian(t *testing.T) {
	// |Cauchy| has median 1: check the empirical median of mapped
	// uniforms.
	rng := rand.New(rand.NewSource(1))
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Abs(cauchyFromUnit(rng.Float64() + 1e-12))
	}
	// Median via partial selection: count below 1 should be ~n/2.
	below := 0
	for _, v := range vals {
		if v < 1 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("P(|C| < 1) = %.3f, want 0.5", frac)
	}
}

func TestCauchyClamp(t *testing.T) {
	if v := cauchyFromUnit(1.0); math.IsInf(v, 0) || math.Abs(v) > 1e12 {
		t.Errorf("cauchyFromUnit(1) = %v not clamped", v)
	}
	if v := cauchyFromUnit(1e-18); math.Abs(v) > 1e12 {
		t.Errorf("cauchyFromUnit(~0) = %v not clamped", v)
	}
}

// TestMedianEstimateConstantFactor: Indyk's median estimator is within a
// constant factor of ||f||_1 (Fact 1 usage needs (1 +- 1/8); the median
// of r' rows has relative spread about pi/(2 sqrt(r')), so r' = 64 rows
// give ~20% — we check a 35% band holds for most draws).
func TestMedianEstimateConstantFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, v := turnstileStream(rng, 1<<12, 20000, 1)
	ok := 0
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		sk := NewSketch(rng, 4, 64, 4)
		for i, x := range v {
			sk.Update(i, x)
		}
		got := sk.MedianEstimate()
		want := float64(v.L1())
		if got > 0.65*want && got < 1.35*want {
			ok++
		}
	}
	if ok < reps*3/4 {
		t.Errorf("median estimate within 35%% only %d/%d times", ok, reps)
	}
}

// TestLnCosEstimate reproduces Theorem 7's (1 +- eps) accuracy at
// moderate eps on a general turnstile stream.
func TestLnCosEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, v := turnstileStream(rng, 1<<12, 30000, 4)
	want := float64(v.L1())
	ok := 0
	const reps = 15
	for rep := 0; rep < reps; rep++ {
		sk := NewSketch(rng, 256, 32, 6) // r = 256 ~ eps = 1/16
		for _, u := range s.Updates {
			sk.Update(u.Index, u.Delta)
		}
		got := sk.LnCosEstimate()
		if math.Abs(got-want) < 0.15*want {
			ok++
		}
	}
	if ok < reps*2/3 {
		t.Errorf("ln-cos estimate within 15%% only %d/%d times", ok, reps)
	}
}

// TestLnCosGuards: degenerate inputs do not produce NaN.
func TestLnCosGuards(t *testing.T) {
	sk := NewSketch(rand.New(rand.NewSource(4)), 2, 1, 4)
	one := int64(1) << denseFPBits
	if got := sk.estimate(&level{c: []int64{one, 2 * one, 0}}, 1, true); got != 0 {
		t.Errorf("ln-cos with ymed=0 = %v", got)
	}
	// Force nonpositive cosine average: cos(pi) twice over ymed = 1.
	pi := int64(math.Round(math.Pi * float64(one)))
	if got := sk.estimate(&level{c: []int64{pi, pi, one}}, 1, true); math.IsNaN(got) || got <= 0 {
		t.Errorf("ln-cos fallback = %v", got)
	}
}

// TestSketchLinearity: sketch of f then of -f returns counters to zero.
func TestSketchLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sk := NewSketch(rng, 8, 8, 4)
	sk.Update(5, 100)
	sk.Update(9, -40)
	sk.Update(5, -100)
	sk.Update(9, 40)
	for _, y := range sk.lv.c {
		if y != 0 {
			t.Fatalf("counter not returned to zero: %v", sk.lv.c)
		}
	}
	if sk.MedianEstimate() != 0 {
		t.Errorf("estimate of zero vector = %v", sk.MedianEstimate())
	}
}

// TestSaturatingAdd: a delta whose fixed-point product passes int64
// leaves the counter at its sign's extreme, never wrapped to the other
// sign, and while fewer than half the median rows saturate the median
// estimate stays in TestMedianEstimateConstantFactor's band. On the
// 2^-20 grid one add of 2^41 overflows the product of a row with |A| >
// 4, and a second one the sum of a row with |A| > 2 (about 30 % of the
// rows), so both checks are crossed.
func TestSaturatingAdd(t *testing.T) {
	sk := NewSketch(rand.New(rand.NewSource(21)), 4, 64, 4)
	const i, delta = 7, int64(1) << 41
	sk.Update(i, delta)
	sk.Update(i, delta)
	saturated := 0
	for j, y := range sk.lv.c {
		e := sk.entry(j, i)
		switch {
		case y == math.MaxInt64 || y == -math.MaxInt64:
			if (y < 0) != (e < 0) {
				t.Fatalf("counter %d saturated at %d for entry %d: changed sign", j, y, e)
			}
			if j >= sk.r {
				saturated++
			}
		case y != 2*e*delta: // exact: the sum fits
			t.Fatalf("unsaturated counter %d holds %d, want %d", j, y, 2*e*delta)
		}
	}
	if saturated == 0 || 2*saturated >= sk.rPrime {
		t.Fatalf("%d of %d median rows saturated, want some and fewer than half", saturated, sk.rPrime)
	}
	if got, want := sk.MedianEstimate(), float64(2*delta); got < 0.65*want || got > 1.35*want {
		t.Errorf("median estimate %.4g with %d rows saturated, want %.4g +- 35%%", got, saturated, want)
	}
	if got := sk.MaxCounterBits(); got != 64 {
		t.Errorf("MaxCounterBits = %d with counters saturated, want 64", got)
	}
}

// TestSampledSketchAccuracy: Theorem 8's sampled estimator tracks L1 on
// an alpha-property stream within a modest relative error. The sampler
// needs several expected samples per live item (the paper's
// poly(alpha/eps) budget); with base = 64 and m ~ 120k the surviving
// level samples at rate 1/64, so a 64-item universe gets ~30 samples per
// item.
func TestSampledSketchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, v := turnstileStream(rng, 64, 80000, 2)
	want := float64(v.L1())
	ok := 0
	const reps = 10
	for rep := 0; rep < reps; rep++ {
		sk := NewSampledSketch(rng, 192, 32, 6, 64, 10)
		for _, u := range s.Updates {
			sk.Update(u.Index, u.Delta)
		}
		got := sk.Estimate()
		if math.Abs(got-want) < 0.3*want {
			ok++
		}
	}
	if ok < reps*2/3 {
		t.Errorf("sampled estimate within 30%% only %d/%d times", ok, reps)
	}
}

// TestSampledMatchesDenseWhenUnsampled: while t < base^2 the oldest live
// level is level 0 (rate 1), so the sampled estimator sees every update
// and must land near the dense estimator's answer.
func TestSampledMatchesDenseWhenUnsampled(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s, v := turnstileStream(rng, 256, 2000, 2)
	want := float64(v.L1())
	sk := NewSampledSketch(rng, 256, 32, 6, 1<<12, 12)
	for _, u := range s.Updates {
		sk.Update(u.Index, u.Delta)
	}
	if j, _ := sk.win.Oldest(); j != 0 {
		t.Fatalf("expected level 0 to survive, got %d", j)
	}
	got := sk.Estimate()
	if math.Abs(got-want) > 0.2*want {
		t.Errorf("unsampled-regime estimate %.0f, want %.0f +- 20%%", got, want)
	}
}

// TestSampledSketchLevels: the schedule keeps at most two levels live.
func TestSampledSketchLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sk := NewSampledSketch(rng, 4, 4, 4, 8, 8)
	for i := 0; i < 100000; i++ {
		sk.Update(uint64(i%100), 1)
		if sk.win.Len() > 2 {
			t.Fatalf("%d levels live at t=%d", sk.win.Len(), sk.t)
		}
	}
	if _, lv := sk.win.Oldest(); lv == nil {
		t.Fatal("no live level at stream end")
	}
}

// TestSampledCountersNarrowerThanDense: Theorem 8's point is counter
// width — sampled counters need O(log(alpha log n/eps)) bits where the
// dense baseline needs O(log n) (magnitude + precision). Compare the
// widths directly on a long stream.
func TestSampledCountersNarrowerThanDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const r, rp = 64, 16
	dense := NewSketch(rng, r, rp, 4)
	sampled := NewSampledSketch(rng, r, rp, 4, 32, 4)
	for i := 0; i < 300000; i++ {
		id := uint64(i % 50)
		dense.Update(id, 1)
		sampled.Update(id, 1)
	}
	db := dense.MaxCounterBits()
	sb := sampled.MaxCounterBits()
	if sb >= db {
		t.Errorf("sampled counter width %d >= dense width %d", sb, db)
	}
}

func TestSampledEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sk := NewSampledSketch(rng, 4, 4, 4, 8, 8)
	if sk.Estimate() != 0 || sk.MedianEstimate() != 0 {
		t.Error("empty sketch should estimate 0")
	}
}

func TestNewSketchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSketch(rand.New(rand.NewSource(9)), 0, 1, 4)
}

func TestNewSampledPanicsOnSmallBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSampledSketch(rand.New(rand.NewSource(10)), 1, 1, 4, 2, 8)
}

func BenchmarkSketchUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	sk := NewSketch(rng, 256, 16, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i%1024), 1)
	}
}

func BenchmarkSampledUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	sk := NewSampledSketch(rng, 256, 16, 6, 64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i%1024), 1)
	}
}
