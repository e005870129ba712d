package morris

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sample"
)

// TestUnbiased verifies E[2^v - 1] = t for the single counter.
func TestUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const events = 1000
	const reps = 3000
	var sum float64
	for r := 0; r < reps; r++ {
		c := New(rng)
		for i := 0; i < events; i++ {
			c.Increment()
		}
		sum += float64(c.Estimate())
	}
	mean := sum / reps
	// Var(2^v) ~ t^2/2, so the std error of the mean over reps is about
	// events/sqrt(2*reps); allow 6 sigma.
	tol := 6 * float64(events) / math.Sqrt(2*reps)
	if math.Abs(mean-events) > tol {
		t.Errorf("Morris mean estimate %.1f, want %d +- %.1f", mean, events, tol)
	}
}

// TestLemma11Bounds checks the paper's loose bounds hold with margin:
// delta/(12 log m) * t <= estimate <= t/delta for most runs.
func TestLemma11Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const events = 1 << 14
	const reps = 500
	const delta = 0.05
	logM := math.Log2(float64(events))
	lower := delta / (12 * logM) * events
	upper := events / delta
	violations := 0
	for r := 0; r < reps; r++ {
		c := New(rng)
		for i := 0; i < events; i++ {
			c.Increment()
		}
		e := float64(c.Estimate())
		if e < lower || e > upper {
			violations++
		}
	}
	if frac := float64(violations) / reps; frac > delta {
		t.Errorf("Lemma 11 bounds violated in %.3f of runs, want <= %v", frac, delta)
	}
}

// TestMonotoneNondecreasing: estimates never decrease as events arrive.
func TestMonotoneNondecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(rng)
	prev := c.Estimate()
	for i := 0; i < 100000; i++ {
		c.Increment()
		if e := c.Estimate(); e < prev {
			t.Fatalf("estimate decreased: %d -> %d", prev, e)
		} else {
			prev = e
		}
	}
}

// TestSpaceBits: after t events, v ~ log t so space ~ log log t.
func TestSpaceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New(rng)
	for i := 0; i < 1<<16; i++ {
		c.Increment()
	}
	// v should be around 16; its bit-width around 5.
	if c.SpaceBits() > 7 {
		t.Errorf("SpaceBits = %d, want <= 7 (log log m)", c.SpaceBits())
	}
	if c.SpaceBits() < 3 {
		t.Errorf("SpaceBits = %d suspiciously small", c.SpaceBits())
	}
}

func TestExponentGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(rng)
	for i := 0; i < 1<<18; i++ {
		c.Increment()
	}
	if c.Exponent() < 12 || c.Exponent() > 26 {
		t.Errorf("Exponent = %d after 2^18 events, want near 18", c.Exponent())
	}
}

func TestZeroEvents(t *testing.T) {
	c := New(rand.New(rand.NewSource(8)))
	if c.Estimate() != 0 {
		t.Errorf("fresh counter estimate = %d, want 0", c.Estimate())
	}
}

func BenchmarkIncrement(b *testing.B) {
	c := New(rand.New(rand.NewSource(9)))
	for i := 0; i < b.N; i++ {
		c.Increment()
	}
}

// TestAddMatchesIncrement: Add(n) has the same distribution as n
// Increments; compare means and check determinism of bounds.
func TestAddMatchesIncrement(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const events = 1 << 12
	const reps = 2000
	var sumAdd, sumInc float64
	for r := 0; r < reps; r++ {
		a := New(rng)
		a.Add(events)
		sumAdd += float64(a.Estimate())
		b := New(rng)
		for i := 0; i < events; i++ {
			b.Increment()
		}
		sumInc += float64(b.Estimate())
	}
	meanAdd, meanInc := sumAdd/reps, sumInc/reps
	if math.Abs(meanAdd-meanInc) > 0.2*float64(events) {
		t.Errorf("Add mean %.0f vs Increment mean %.0f", meanAdd, meanInc)
	}
	if math.Abs(meanAdd-events) > 0.2*float64(events) {
		t.Errorf("Add mean %.0f biased vs %d", meanAdd, events)
	}
}

// TestAddHugeCount: Add handles astronomically large batches in O(log n).
func TestAddHugeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := New(rng)
	c.Add(1 << 50)
	e := c.Estimate()
	if e < (1<<50)/128 || e > (1<<50)*128 {
		t.Errorf("estimate %d far from 2^50", e)
	}
}

// onesSource is a rand.Source whose every Int63 is 1, so Float64 draws
// u = 2^-53: the smallest nonzero uniform, hence the longest gap.
type onesSource struct{}

func (onesSource) Int63() int64 { return 1 }
func (onesSource) Seed(int64)   {}

// TestAddGapBeyondInt64: at exponent 60 the draw u = 2^-53 gives a
// geometric gap of about 4e19 events, past int64. No success can fall
// within 1000 events, so the exponent must stand still.
func TestAddGapBeyondInt64(t *testing.T) {
	c := Restore(sample.Wrap(rand.New(onesSource{})), 60, 60)
	c.Add(1000)
	if got := c.Exponent(); got != 60 {
		t.Fatalf("exponent after Add(1000) at v=60 is %d, want 60", got)
	}
}

// referenceAdd is Add as it stood before the unit step learned to skip
// its logarithms: the oracle the fast path must agree with draw for
// draw.
func referenceAdd(c *Counter, n int64) {
	for n > 0 && c.v < 63 {
		if c.v == 0 {
			c.v++
			if c.v > c.max {
				c.max = c.v
			}
			n--
			continue
		}
		p := math.Ldexp(1, -int(c.v))
		u := c.rng.Get().Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := math.Floor(math.Log(u)/math.Log1p(-p)) + 1
		if gap < 1 {
			gap = 1
		}
		if gap >= 1<<63 || int64(gap) > n {
			return
		}
		n -= int64(gap)
		c.v++
		if c.v > c.max {
			c.max = c.v
		}
	}
}

// scriptSource plays back fixed Int63 values; Float64 divides each by
// 2^63, so k << 10 draws the uniform k / 2^53 exactly.
type scriptSource struct {
	vals []int64
	next int
}

func (s *scriptSource) Int63() int64 { s.next++; return s.vals[s.next-1] }
func (s *scriptSource) Seed(int64)   {}

// TestAddUnitFastPathMatchesReference: Add(1) is bit-identical to the
// all-logarithm body — the same exponent after every step and the same
// number of draws spent — on long same-seed runs and, for every
// exponent, on draws planted within 3000 grid steps of the success
// boundary 1 - 2^-v, where the skip must hand over to the arithmetic.
func TestAddUnitFastPathMatchesReference(t *testing.T) {
	seeds, steps := 10, 2_000_000
	if testing.Short() {
		seeds, steps = 2, 200_000
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		fastRng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		fast, ref := New(fastRng), New(refRng)
		for i := 0; i < steps; i++ {
			fast.Add(1)
			referenceAdd(ref, 1)
			if fast.v != ref.v || fast.max != ref.max {
				t.Fatalf("seed %d step %d: exponent %d (max %d), reference %d (max %d)", seed, i, fast.v, fast.max, ref.v, ref.max)
			}
		}
		if a, b := fastRng.Int63(), refRng.Int63(); a != b {
			t.Fatalf("seed %d: the rngs left in step: next draws %d and %d", seed, a, b)
		}
	}

	const grid, reach = int64(1) << 53, 3000
	cases, successes := 0, 0
	for v := uint8(1); v <= 62; v++ {
		boundary := grid - 1 // 1 - 2^-v is above every draw from v = 54 on
		if v <= 53 {
			boundary = grid - grid>>v
		}
		for k := max(0, boundary-reach); k <= min(grid-1, boundary+reach); k++ {
			// A second value stands behind the first so that a wrong
			// extra draw shows up as a difference, not as a panic.
			fastSrc, refSrc := &scriptSource{vals: []int64{k << 10, 1}}, &scriptSource{vals: []int64{k << 10, 1}}
			fast, ref := Restore(sample.Wrap(rand.New(fastSrc)), v, v), Restore(sample.Wrap(rand.New(refSrc)), v, v)
			fast.Add(1)
			referenceAdd(ref, 1)
			if fast.v != ref.v || fast.max != ref.max || fastSrc.next != refSrc.next {
				t.Fatalf("v=%d u=%d/2^53: exponent %d after %d draws, reference %d after %d",
					v, k, fast.v, fastSrc.next, ref.v, refSrc.next)
			}
			cases++
			if ref.v > v {
				successes++
			}
		}
	}
	if successes == 0 || successes == cases {
		t.Fatalf("%d of %d boundary cases succeeded: the planted draws do not straddle the boundary", successes, cases)
	}
	t.Logf("%d boundary cases, %d successes, no differences", cases, successes)
}
