package csss

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

func splitByIndex(s *stream.Stream, parts int) [][]stream.Update {
	out := make([][]stream.Update, parts)
	for _, u := range s.Updates {
		p := int(u.Index) % parts
		out[p] = append(out[p], u)
	}
	return out
}

// TestMergeExactInRateOneRegime: while the combined stream stays below
// 2S unit updates no sampling or halving happens, so merging same-seed
// sketches of split streams must reproduce the single-stream table
// bit for bit.
func TestMergeExactInRateOneRegime(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.2, Seed: 8})
	params := Params{Rows: 5, K: 16, S: 1 << 20} // S far above the stream mass
	const seed = 17
	whole := New(rand.New(rand.NewSource(seed)), params)
	feedColumns(whole, s.Updates)
	if whole.SampleExponent() != 0 {
		t.Fatal("test workload unexpectedly left the rate-1 regime")
	}

	parts := splitByIndex(s, 3)
	merged := New(rand.New(rand.NewSource(seed)), params)
	feedColumns(merged, parts[0])
	for _, p := range parts[1:] {
		sh := New(rand.New(rand.NewSource(seed)), params)
		feedColumns(sh, p)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.t != whole.t || merged.p != whole.p {
		t.Fatalf("position/exponent: merged (%d,%d), single-stream (%d,%d)", merged.t, merged.p, whole.t, whole.p)
	}
	for c := range whole.table {
		if merged.table[c] != whole.table[c] {
			t.Fatalf("cell %d: merged %v, single-stream %v", c, merged.table[c], whole.table[c])
		}
	}
}

// TestMergeAcrossSamplingRates: when the two sketches sit at different
// sampling exponents, the merge thins the finer one down and the result
// still answers point queries within the structure's guarantee.
func TestMergeAcrossSamplingRates(t *testing.T) {
	params := Params{Rows: 7, K: 32, S: 1 << 10} // small S forces halvings
	const seed = 23
	const heavyItem, heavyWeight = 42, 4000

	// Shard A: long stream, ends at p > 0. Shard B: short stream, p = 0.
	a := New(rand.New(rand.NewSource(seed)), params)
	rngA := rand.New(rand.NewSource(1))
	for i := 0; i < 30000; i++ {
		a.Update(uint64(rngA.Intn(1000)), 1)
	}
	a.Update(heavyItem, heavyWeight)
	b := New(rand.New(rand.NewSource(seed)), params)
	b.Update(heavyItem, heavyWeight)

	if a.SampleExponent() == 0 {
		t.Fatal("shard A did not leave the rate-1 regime; pick a smaller S")
	}
	pBefore := a.SampleExponent()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.SampleExponent() < pBefore {
		t.Fatalf("merge lowered the sampling exponent: %d -> %d", pBefore, a.SampleExponent())
	}
	if got, want := a.Position(), int64(30000+2*heavyWeight); got != want {
		t.Fatalf("merged position %d, want %d", got, want)
	}
	est := a.Query(heavyItem)
	if math.Abs(est-2*heavyWeight) > heavyWeight {
		t.Fatalf("merged estimate of the heavy item is %v, want within %v of %v", est, heavyWeight, 2*heavyWeight)
	}
}

// TestMergeRejectsMismatches: params differences error out. (Whether two
// sketches share a seed is their owner's Config check.)
func TestMergeRejectsMismatches(t *testing.T) {
	params := Params{Rows: 5, K: 8, S: 1 << 12}
	a := New(rand.New(rand.NewSource(1)), params)
	if err := a.Merge(New(rand.New(rand.NewSource(1)), Params{Rows: 5, K: 8, S: 1 << 13})); err == nil {
		t.Fatal("merging different params should fail")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merging nil should fail")
	}
}

// TestCloneIsolated: clones share no mutable state, including the
// update scratch memo.
func TestCloneIsolated(t *testing.T) {
	sk := New(rand.New(rand.NewSource(3)), Params{Rows: 5, K: 8, S: 1 << 12})
	sk.Update(7, 5)
	c := sk.CloneInto(nil)
	c.Update(7, 100)
	if got := sk.Query(7); got != 5 {
		t.Fatalf("original query = %v, want 5", got)
	}
	if got := c.Query(7); got != 105 {
		t.Fatalf("clone query = %v, want 105", got)
	}
}

// TestTailEstimatorMerge: both inner instances merge and the estimator
// still produces a bound covering the true tail.
func TestTailEstimatorMerge(t *testing.T) {
	params := Params{Rows: 5, K: 8, S: 1 << 16}
	const seed = 29
	whole := NewTailEstimator(rand.New(rand.NewSource(seed)), params)
	a := NewTailEstimator(rand.New(rand.NewSource(seed)), params)
	b := NewTailEstimator(rand.New(rand.NewSource(seed)), params)
	var cands []uint64
	for i := uint64(0); i < 40; i++ {
		whole.Update(i, int64(10+i))
		if i%2 == 0 {
			a.Update(i, int64(10+i))
		} else {
			b.Update(i, int64(10+i))
		}
		cands = append(cands, i)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	vWhole, _ := whole.Estimate(cands, 2000, 0.01)
	vMerged, _ := a.Estimate(cands, 2000, 0.01)
	if vWhole != vMerged {
		t.Fatalf("tail bound: merged %v, single-stream %v (rate-1 regime should be exact)", vMerged, vWhole)
	}
}

// TestShiftKeepsTheSum: a union summed from parts at one exponent and
// shifted by new − old for one part, or by a joining part, holds the
// bytes MergeAll writes over the new set; a shift by a part at another
// exponent, by one of other params, or to a position at the next
// halving is refused and changes nothing.
func TestShiftKeepsTheSum(t *testing.T) {
	params := Params{Rows: 5, K: 16, S: 1 << 10}
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 60000, Alpha: 4, Zipf: 1.2, Seed: 9})
	part := func(lo, hi, p int) *Sketch {
		sk := New(rand.New(rand.NewSource(5)), params)
		feedColumns(sk, s.Updates[lo:hi])
		sk.RaiseExponent(p)
		return sk
	}
	bytesOf := func(sk *Sketch) string {
		b, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	union := func(parts ...*Sketch) string {
		u, err := parts[0].MergeAll(nil, parts[1:])
		if err != nil {
			t.Fatal(err)
		}
		return bytesOf(u)
	}
	a, b, c, d := part(0, 1500, 2), part(1500, 2500, 2), part(2500, 3000, 2), part(3000, 3600, 2)
	view, err := a.MergeAll(nil, []*Sketch{b})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Shift(c, b); err != nil {
		t.Fatal(err)
	}
	view.MaxCountOf([]*Sketch{a, c})
	if bytesOf(view) != union(a, c) {
		t.Fatal("a union shifted by c − b differs from MergeAll over a and c")
	}
	if err := view.Shift(d, nil); err != nil {
		t.Fatal(err)
	}
	view.MaxCountOf([]*Sketch{a, c, d})
	if bytesOf(view) != union(a, c, d) {
		t.Fatal("a union shifted by a joining d differs from MergeAll over a, c and d")
	}
	before := bytesOf(view)
	for name, shift := range map[string]func() error{
		"a part at another exponent":      func() error { return view.Shift(part(0, 500, 3), nil) },
		"an old part at another exponent": func() error { return view.Shift(part(0, 500, 2), part(0, 500, 1)) },
		"other params": func() error {
			o := New(rand.New(rand.NewSource(5)), Params{Rows: 5, K: 16, S: 1 << 11})
			o.RaiseExponent(2)
			return view.Shift(o, nil)
		},
		"a position at the next halving": func() error { return view.Shift(part(0, 8000, 2), nil) },
	} {
		if err := shift(); err == nil {
			t.Errorf("a shift by %s was accepted", name)
		}
		if bytesOf(view) != before {
			t.Fatalf("a refused shift by %s changed the union", name)
		}
	}
}
