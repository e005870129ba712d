package sample

import (
	"math"
	"math/rand"
	"testing"
)

func TestDyadicRates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{0, 1, 3, 6} {
		const n = 200000
		hits := 0
		for i := 0; i < n; i++ {
			if Dyadic(rng, k) {
				hits++
			}
		}
		want := float64(n) / float64(int64(1)<<uint(k))
		if k == 0 && hits != n {
			t.Fatalf("Dyadic(0) must always hit")
		}
		if math.Abs(float64(hits)-want) > 6*math.Sqrt(want) {
			t.Errorf("Dyadic(%d): %d hits, want about %.0f", k, hits, want)
		}
	}
}

func TestDyadicLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 2^-100 should essentially never hit.
	for i := 0; i < 10000; i++ {
		if Dyadic(rng, 100) {
			t.Fatal("Dyadic(100) hit; astronomically unlikely")
		}
	}
}

func TestHalfMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []int64{1, 5, 63, 64, 65, 1000} {
		const reps = 20000
		var sum, sumSq float64
		for i := 0; i < reps; i++ {
			v := Half(rng, c)
			if v < 0 || v > c {
				t.Fatalf("Half(%d) = %d out of range", c, v)
			}
			sum += float64(v)
			sumSq += float64(v) * float64(v)
		}
		mean := sum / reps
		wantMean := float64(c) / 2
		tol := 6 * math.Sqrt(float64(c)/4/reps)
		if math.Abs(mean-wantMean) > tol+0.01 {
			t.Errorf("Half(%d) mean %.3f, want %.3f +- %.3f", c, mean, wantMean, tol)
		}
		variance := sumSq/reps - mean*mean
		wantVar := float64(c) / 4
		if c >= 64 && math.Abs(variance-wantVar) > 0.25*wantVar {
			t.Errorf("Half(%d) variance %.3f, want about %.3f", c, variance, wantVar)
		}
	}
}

func TestHalfEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if Half(rng, 0) != 0 || Half(rng, -5) != 0 {
		t.Error("Half of nonpositive should be 0")
	}
}

func TestHalfLargePath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := int64(halfExactLimit) * 4
	v := Half(rng, c)
	if v < 0 || v > c {
		t.Fatalf("Half(%d) = %d out of range", c, v)
	}
	// Within 10 standard deviations of c/2.
	sd := math.Sqrt(float64(c)) / 2
	if math.Abs(float64(v)-float64(c)/2) > 10*sd {
		t.Errorf("Half(%d) = %d too far from mean", c, v)
	}
}

func TestBinomialMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.3}, {100, 0.01}, {1000, 0.5}, {50, 0.9}, {1 << 20, 1e-4},
	}
	for _, c := range cases {
		const reps = 20000
		var sum, sumSq float64
		for i := 0; i < reps; i++ {
			v := Binomial(rng, c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
			sumSq += float64(v) * float64(v)
		}
		mean := sum / reps
		wantMean := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if math.Abs(mean-wantMean) > 6*sd/math.Sqrt(reps)+0.01 {
			t.Errorf("Binomial(%d,%v) mean %.3f, want %.3f", c.n, c.p, mean, wantMean)
		}
		variance := sumSq/reps - mean*mean
		wantVar := sd * sd
		if wantVar > 1 && math.Abs(variance-wantVar) > 0.2*wantVar {
			t.Errorf("Binomial(%d,%v) var %.3f, want about %.3f", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if Binomial(rng, 0, 0.5) != 0 {
		t.Error("Bin(0,p) != 0")
	}
	if Binomial(rng, 10, 0) != 0 {
		t.Error("Bin(n,0) != 0")
	}
	if Binomial(rng, 10, 1) != 10 {
		t.Error("Bin(n,1) != n")
	}
	if Binomial(rng, 10, 1.5) != 10 {
		t.Error("Bin(n,p>1) != n")
	}
	if Binomial(rng, -3, 0.5) != 0 {
		t.Error("Bin(n<0,p) != 0")
	}
}

// TestBinomialTinyRate: with p near 2^-60 a geometric gap exceeds int64;
// the walk must end there, not restart one step at a time.
func TestBinomialTinyRate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var sum int64
	for i := 0; i < 200; i++ {
		v := Binomial(rng, math.MaxInt64, 1/float64(int64(1)<<60))
		if v < 0 || v > 40 {
			t.Fatalf("Bin(2^63-1, 2^-60) = %d, mean is 8", v)
		}
		sum += v
	}
	if sum < 200*6 || sum > 200*10 {
		t.Errorf("mean of 200 draws %.2f, want about 8", float64(sum)/200)
	}
}

func TestBinomialLargeGaussianPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := int64(1) << 30
	p := 0.25
	v := Binomial(rng, n, p)
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if math.Abs(float64(v)-mean) > 10*sd {
		t.Errorf("Binomial large path: %d too far from mean %.0f", v, mean)
	}
}

func TestActiveLevels(t *testing.T) {
	cases := []struct {
		t, s   int64
		lo, hi int
	}{
		{1, 4, 0, 0},
		{3, 4, 0, 0},
		{4, 4, 0, 1},
		{15, 4, 0, 1},
		{16, 4, 1, 2},
		{63, 4, 1, 2},
		{64, 4, 2, 3},
		{0, 4, 0, 0},
	}
	for _, c := range cases {
		lo, hi := ActiveLevels(c.t, c.s)
		if lo != c.lo || hi != c.hi {
			t.Errorf("ActiveLevels(%d,%d) = (%d,%d), want (%d,%d)", c.t, c.s, lo, hi, c.lo, c.hi)
		}
	}
}

// TestActiveLevelsInvariant: at every time t, t is inside I_j = [s^j,
// s^{j+2}] for both returned levels, so both live sketches are valid —
// and a Window synced at every t holds exactly those levels with their
// own payloads, each built once: when t first crosses its power of s.
func TestActiveLevelsInvariant(t *testing.T) {
	for _, s := range []int64{2, 4, 10} {
		w := NewWindow[int64](s)
		built := 0
		fresh := func(j int) *int64 { built++; v := int64(j); return &v }
		for tm := int64(1); tm < 100000; tm++ {
			lo, hi := ActiveLevels(tm, s)
			for _, j := range []int{lo, hi} {
				lower := Pow(s, j)
				upper := Pow(s, j+2)
				if tm < lower || tm > upper {
					t.Fatalf("t=%d s=%d level %d: t outside [s^%d, s^%d] = [%d,%d]",
						tm, s, j, j, j+2, lower, upper)
				}
			}
			if hi-lo > 1 {
				t.Fatalf("more than two live levels at t=%d", tm)
			}
			w.Sync(tm, fresh)
			var live []int
			for j, v := range w.Each {
				if int(*v) != j {
					t.Fatalf("t=%d s=%d: level %d holds level %d's payload", tm, s, j, *v)
				}
				live = append(live, j)
			}
			if len(live) != hi-lo+1 || live[0] != lo || live[len(live)-1] != hi {
				t.Fatalf("t=%d s=%d: window holds %v, schedule [%d, %d]", tm, s, live, lo, hi)
			}
			if j, _ := w.Oldest(); j != lo {
				t.Fatalf("t=%d s=%d: Oldest = %d, want %d", tm, s, j, lo)
			}
			if built != hi+1 {
				t.Fatalf("t=%d s=%d: %d levels built so far, want one per level 0..%d", tm, s, built, hi)
			}
		}
	}
}

func TestPow(t *testing.T) {
	if Pow(4, 0) != 1 || Pow(4, 3) != 64 {
		t.Error("Pow basic values wrong")
	}
	if Pow(10, 30) != math.MaxInt64 {
		t.Error("Pow should saturate")
	}
}

func BenchmarkDyadic(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < b.N; i++ {
		Dyadic(rng, 10)
	}
}

func BenchmarkHalf1000(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < b.N; i++ {
		Half(rng, 1000)
	}
}

func BenchmarkBinomialSmallMean(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < b.N; i++ {
		Binomial(rng, 1<<20, 1e-5)
	}
}

// referenceUnitBinomial is Binomial(rng, 1, p) for 0 < p < 1/2 as it
// stood before the single trial learned to skip its logarithms: the
// oracle the n == 1 arm must agree with draw for draw.
func referenceUnitBinomial(rng *rand.Rand, p float64) int64 {
	var count, i int64
	logq := math.Log1p(-p)
	for {
		u := rng.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := math.Floor(math.Log(u)/logq) + 1
		if gap < 1 {
			gap = 1
		}
		if gap >= 1<<63 || int64(gap) > 1-i {
			return count
		}
		i += int64(gap)
		count++
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

// TestBinomialUnitMatchesReference: Binomial(rng, 1, p) returns what the
// all-logarithm body returned and leaves the rng on the same word — a
// success spends a second draw before the walk ends — on 10^6 same-seed
// draws per rate and on draws planted within 3000 grid steps of the
// success boundary 1 - p, where the skip must hand over to the
// arithmetic.
func TestBinomialUnitMatchesReference(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, e := range []int{2, 10, 24, 40, 60} {
		p := math.Ldexp(1, -e)
		fastRng, refRng := rand.New(rand.NewSource(int64(e))), rand.New(rand.NewSource(int64(e)))
		hits := 0
		for i := 0; i < draws; i++ {
			got, want := Binomial(fastRng, 1, p), referenceUnitBinomial(refRng, p)
			if got != want {
				t.Fatalf("p=2^-%d draw %d: Binomial = %d, reference %d", e, i, got, want)
			}
			hits += int(want)
		}
		if a, b := fastRng.Int63(), refRng.Int63(); a != b {
			t.Fatalf("p=2^-%d: the rngs left in step after %d hits: next draws %d and %d", e, hits, a, b)
		}
		if e <= 10 && hits == 0 {
			t.Fatalf("p=2^-%d: no success in %d draws", e, draws)
		}

		const grid, reach = int64(1) << 53, 3000
		boundary := grid - 1 // 1 - p is above every draw from p = 2^-54 on
		if e <= 53 {
			boundary = grid - grid>>e
		}
		successes := 0
		for k := max(0, boundary-reach); k <= min(grid-1, boundary+reach); k++ {
			// Two values stand behind the first so that a wrong extra
			// draw shows up as a difference, not as a panic.
			fastSrc, refSrc := &scriptSource{vals: []int64{k << 10, 1, 1}}, &scriptSource{vals: []int64{k << 10, 1, 1}}
			got, want := Binomial(rand.New(fastSrc), 1, p), referenceUnitBinomial(rand.New(refSrc), p)
			if got != want || fastSrc.next != refSrc.next {
				t.Fatalf("p=2^-%d u=%d/2^53: %d after %d draws, reference %d after %d", e, k, got, fastSrc.next, want, refSrc.next)
			}
			successes += int(want)
		}
		if e <= 40 && (successes == 0 || successes > 2*reach) {
			t.Fatalf("p=2^-%d: %d of %d boundary cases succeeded: the planted draws do not straddle the boundary", e, successes, 2*reach+1)
		}
	}
}
