package morris

import (
	"math"
	"math/rand"
	"testing"
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
	c := Restore(rand.New(onesSource{}), 60, 60)
	c.Add(1000)
	if got := c.Exponent(); got != 60 {
		t.Fatalf("exponent after Add(1000) at v=60 is %d, want 60", got)
	}
}
