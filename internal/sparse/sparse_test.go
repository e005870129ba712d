package sparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRecoverSmallVector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRecovery(rng, 8, 1<<20)
	want := map[uint64]int64{3: 5, 1000: -2, 99999: 7}
	for x, d := range want {
		r.Update(x, d)
	}
	got, err := r.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Decode = %v, want %v", got, want)
	}
}

func TestDecodeIsNondestructive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRecovery(rng, 4, 1<<10)
	r.Update(7, 3)
	first, err := r.Decode()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Decode not repeatable: %v vs %v", first, second)
	}
}

func TestRecoverAtCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const s = 64
	success := 0
	const reps = 50
	for rep := 0; rep < reps; rep++ {
		r := NewRecovery(rng, s, 1<<30)
		want := make(map[uint64]int64)
		for len(want) < s {
			x := rng.Uint64() % (1 << 30)
			if _, dup := want[x]; dup {
				continue
			}
			d := rng.Int63n(1000) - 500
			if d == 0 {
				d = 1
			}
			want[x] = d
			r.Update(x, d)
		}
		got, err := r.Decode()
		if err == nil && reflect.DeepEqual(got, want) {
			success++
		}
	}
	if success < reps*9/10 {
		t.Errorf("at-capacity recovery succeeded %d/%d times", success, reps)
	}
}

func TestDenseDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const s = 16
	dense := 0
	const reps = 30
	for rep := 0; rep < reps; rep++ {
		r := NewRecovery(rng, s, 1<<30)
		// Load 20x capacity: peeling must stall.
		for i := 0; i < 20*s; i++ {
			r.Update(rng.Uint64()%(1<<30), 1+rng.Int63n(5))
		}
		if _, err := r.Decode(); err == ErrDense {
			dense++
		}
	}
	if dense < reps*9/10 {
		t.Errorf("DENSE detected only %d/%d times on 20x overload", dense, reps)
	}
}

func TestCancellationLeavesEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRecovery(rng, 8, 1<<20)
	for i := uint64(0); i < 100; i++ {
		r.Update(i, 7)
	}
	for i := uint64(0); i < 100; i++ {
		r.Update(i, -7)
	}
	got, err := r.Decode()
	if err != nil {
		t.Fatalf("Decode after cancellation: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("expected empty vector, got %v", got)
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewRecovery(rng, 8, 1<<16)
	b := a.Sibling()
	a.Update(5, 10)
	a.Update(9, 3)
	b.Update(9, -3)
	b.Update(70, 4)
	a.Add(b)
	got, err := a.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int64{5: 10, 70: 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Add+Decode = %v, want %v", got, want)
	}
	a.Sub(b)
	got, err = a.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want = map[uint64]int64{5: 10, 9: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sub+Decode = %v, want %v", got, want)
	}
}

func TestSubGivesSuffixVector(t *testing.T) {
	// The Figure 8 idiom: sketch(prefix) subtracted from sketch(whole)
	// equals sketch(suffix).
	rng := rand.New(rand.NewSource(7))
	whole := NewRecovery(rng, 8, 1<<16)
	prefix := whole.Sibling()
	updates := []struct {
		x uint64
		d int64
	}{{1, 4}, {2, -1}, {3, 9}, {1, -4}, {4, 2}}
	for i, u := range updates {
		whole.Update(u.x, u.d)
		if i < 2 {
			prefix.Update(u.x, u.d)
		}
	}
	whole.Sub(prefix)
	got, err := whole.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int64{3: 9, 1: -4, 4: 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("suffix = %v, want %v", got, want)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(keys []uint32, vals []int16) bool {
		r := NewRecovery(rng, 32, 1<<32)
		want := make(map[uint64]int64)
		for i, k := range keys {
			if i >= 24 || i >= len(vals) || vals[i] == 0 {
				break
			}
			x := uint64(k)
			want[x] += int64(vals[i])
			if want[x] == 0 {
				delete(want, x)
			}
			r.Update(x, int64(vals[i]))
		}
		got, err := r.Decode()
		if err != nil {
			// A rare peeling stall reported as DENSE is within the
			// Lemma 22 contract ("whp"); what is never allowed is a
			// wrong decode, checked below.
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestUpdateZeroIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := NewRecovery(rng, 4, 1<<10)
	r.Update(5, 0)
	got, err := r.Decode()
	if err != nil || len(got) != 0 {
		t.Errorf("zero update changed sketch: %v %v", got, err)
	}
}

func TestSpaceBitsScalesWithCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	small := NewRecovery(rng, 8, 1<<20)
	big := NewRecovery(rng, 256, 1<<20)
	if big.SpaceBits() <= small.SpaceBits() {
		t.Error("space should grow with capacity")
	}
}

func TestCombinePanicsOnForeign(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewRecovery(rng, 4, 1<<10)
	b := NewRecovery(rng, 16, 1<<10)
	defer func() {
		if recover() == nil {
			t.Error("expected panic combining sketches of different dimensions")
		}
	}()
	a.Add(b)
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRecovery(rand.New(rand.NewSource(12)), 0, 10)
}

func BenchmarkUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	r := NewRecovery(rng, 128, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Update(uint64(i), 1)
	}
}
