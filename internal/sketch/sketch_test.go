package sketch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hash"
	"repro/internal/order"
	"repro/internal/stream"
)

// buildZipf materializes a zipfian vector and returns it with its stream.
func buildZipf(rng *rand.Rand, n uint64, items int) stream.Vector {
	v := make(stream.Vector)
	z := rand.NewZipf(rng, 1.3, 1, n-1)
	for i := 0; i < items; i++ {
		v.Apply(stream.Update{Index: z.Uint64(), Delta: 1})
	}
	return v
}

func feedVector(cs *CountSketch, v stream.Vector) {
	for i, x := range v {
		cs.Update(i, x)
	}
}

// TestCountSketchPointQuery reproduces Lemma 2: |estimate - f_i| <=
// Err^k_2(f)/sqrt(k) for all i, with k = cols/6.
func TestCountSketchPointQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := buildZipf(rng, 1<<16, 20000)
	k := 16
	cs := NewCountSketch(rng, 9, uint64(6*k))
	feedVector(cs, v)
	bound := v.ErrK2(k) / math.Sqrt(float64(k))
	// Allow a small slack since d=9 is finite; check every live item and
	// a batch of zero items.
	viol := 0
	for i, x := range v {
		if est := cs.Query(i); math.Abs(float64(est-x)) > 2*bound+1 {
			viol++
		}
	}
	for i := uint64(0); i < 1000; i++ {
		id := i + 1<<20
		if est := cs.Query(id); math.Abs(float64(est)) > 2*bound+1 {
			viol++
		}
	}
	// With d=9 rows the per-item failure probability is small but not
	// zero; allow a 0.1% violation fraction over ~20k queries.
	if viol > len(v)/1000+3 {
		t.Errorf("%d point queries broke the Count-Sketch bound %f", viol, bound)
	}
}

// TestCountSketchExactWhenSparse: with far more buckets than items and
// several rows, the sketch recovers sparse vectors exactly whp.
func TestCountSketchExactWhenSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cs := NewCountSketch(rng, 7, 1024)
	v := stream.Vector{5: 10, 99: -3, 1234: 7}
	feedVector(cs, v)
	for i, x := range v {
		if got := cs.Query(i); got != x {
			t.Errorf("Query(%d) = %d, want %d", i, got, x)
		}
	}
	if got := cs.Query(777); got != 0 {
		t.Errorf("Query(absent) = %d, want 0", got)
	}
}

func TestCountSketchLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := hash.NewBuckets(rng, 5, 64)
	a := NewCountSketchWithBuckets(b)
	c := NewCountSketchWithBuckets(b)
	va := stream.Vector{1: 5, 2: -2}
	vc := stream.Vector{2: 7, 9: 1}
	feedVector(a, va)
	feedVector(c, vc)
	sum, err := a.Add(nil, []*CountSketch{c})
	if err != nil {
		t.Fatal(err)
	}
	// sum should equal a sketch of va+vc.
	direct := NewCountSketchWithBuckets(b)
	merged := va.Clone()
	for i, x := range vc {
		merged.Apply(stream.Update{Index: i, Delta: x})
	}
	feedVector(direct, merged)
	for r := 0; r < 5; r++ {
		for col := uint64(0); col < 64; col++ {
			if sum.table[r][col] != direct.table[r][col] {
				t.Fatalf("linearity broken at (%d,%d)", r, col)
			}
		}
	}
	// Sub inverts Add.
	sum.Sub(c)
	for r := 0; r < 5; r++ {
		for col := uint64(0); col < 64; col++ {
			if sum.table[r][col] != a.table[r][col] {
				t.Fatalf("Sub failed at (%d,%d)", r, col)
			}
		}
	}
}

// TestRowL2 reproduces Lemma 4: row L2 approximates ||f||_2 within
// (1 +- O(1/sqrt(cols))).
func TestRowL2(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := buildZipf(rng, 1<<14, 30000)
	want := v.L2()
	cs := NewCountSketch(rng, 9, 256)
	feedVector(cs, v)
	got := cs.L2Estimate()
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("L2Estimate = %.1f, want %.1f +- 25%%", got, want)
	}
}

// TestInnerProduct: sketch inner products estimate <f, g> within
// O(||f||_2 ||g||_2 / sqrt(cols)).
func TestInnerProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := hash.NewBuckets(rng, 9, 512)
	f := buildZipf(rng, 1<<12, 20000)
	g := buildZipf(rng, 1<<12, 20000)
	sf := NewCountSketchWithBuckets(b)
	sg := NewCountSketchWithBuckets(b)
	feedVector(sf, f)
	feedVector(sg, g)
	want := float64(f.Inner(g))
	got := float64(sf.InnerProduct(sg))
	bound := 4 * f.L2() * g.L2() / math.Sqrt(512)
	if math.Abs(got-want) > bound {
		t.Errorf("InnerProduct = %.0f, want %.0f +- %.0f", got, want, bound)
	}
}

func TestInnerProductPanicsOnForeignHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewCountSketch(rng, 3, 16)
	b := NewCountSketch(rng, 3, 16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched hashes")
		}
	}()
	a.InnerProduct(b)
}

func TestCountSketchSpaceBitsGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cs := NewCountSketch(rng, 3, 8)
	empty := cs.SpaceBits()
	cs.Update(1, 1000)
	if cs.SpaceBits() <= empty {
		t.Error("SpaceBits should grow with counter magnitude")
	}
}

func TestMedianInt64(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{3, 1, 2}, 2},
		{[]int64{4, 1, 2, 3}, 2},
		{[]int64{5}, 5},
		{[]int64{}, 0},
		{[]int64{-10, 10}, 0},
	}
	for _, c := range cases {
		if got := order.MedianInt64(append([]int64(nil), c.in...)); got != c.want {
			t.Errorf("median(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	cs := NewCountSketch(rng, 7, 192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Update(uint64(i), 1)
	}
}

func BenchmarkCountSketchQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	cs := NewCountSketch(rng, 7, 192)
	for i := 0; i < 10000; i++ {
		cs.Update(uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Query(uint64(i % 10000))
	}
}
