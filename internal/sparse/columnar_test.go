package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nt"
	"repro/internal/stream"
)

// TestRecoveryColumnarMatchesScalar: the per-subtable columnar sweep
// must leave the IBLT bit-identical to per-update ingestion — same
// cells, same decode, same count peak.
func TestRecoveryColumnarMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	us := make([]stream.Update, 0, 600)
	for i := 0; i < 600; i++ {
		us = append(us, stream.Update{
			Index: uint64(rng.Intn(40)), // heavy collisions
			Delta: int64(rng.Intn(7) - 3),
		})
	}
	a := NewRecovery(rand.New(rand.NewSource(43)), 64, 1<<20)
	b := NewRecovery(rand.New(rand.NewSource(43)), 64, 1<<20)
	for _, u := range us {
		a.Update(u.Index, u.Delta)
	}
	sizes := []int{1, 2, 33, 250}
	for off, k := 0, 0; off < len(us); k++ {
		end := off + sizes[k%len(sizes)]
		if end > len(us) {
			end = len(us)
		}
		core.UpdateBatch(b.UpdateColumns, us[off:end])
		off = end
	}
	da, errA := a.Decode()
	db, errB := b.Decode()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("decode: scalar err %v, columnar err %v", errA, errB)
	}
	if errA == nil && !reflect.DeepEqual(da, db) {
		t.Fatalf("decode: scalar %v, columnar %v", da, db)
	}
	if sa, sb := a.SpaceBits(), b.SpaceBits(); sa != sb {
		t.Fatalf("SpaceBits (count peak): scalar %d, columnar %d", sa, sb)
	}
}

// TestHashColumnApplyMatchesUpdate: a pre-hashed entry applied to any
// sketch sharing the hash functions must leave it exactly as Update
// would — cells and the count peak, over deltas of every shape,
// including the int64 whose negation overflows.
func TestHashColumnApplyMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	proto := NewRecovery(rand.New(rand.NewSource(43)), 40, 1<<40)
	deltas := []int64{1, -1, 5, -5, 1 << 50, -(1 << 50), math.MaxInt64, math.MinInt64}
	for _, n := range []int{1, 3, 700, 4096} {
		keys, ds := make([]uint64, n), make([]int64, n)
		for j := range keys {
			keys[j] = uint64(rng.Int63n(1 << 40))
			if rng.Intn(2) == 0 {
				keys[j] %= 30 // heavy collisions
			}
			ds[j] = deltas[rng.Intn(len(deltas))]
		}
		entries := make([]Entry, n)
		proto.HashColumn(keys, ds, make([]uint64, n), entries)
		// Two siblings at different states share one set of entries.
		for _, prefill := range []int{0, 50} {
			a, b := proto.Sibling(), proto.Sibling()
			for i := 0; i < prefill; i++ {
				a.Update(uint64(i), 2)
				b.Update(uint64(i), 2)
			}
			for j := range keys {
				a.Update(keys[j], ds[j])
				b.Apply(&entries[j])
			}
			if !reflect.DeepEqual(a.cells, b.cells) || a.maxCount != b.maxCount {
				t.Fatalf("n=%d prefill=%d: pre-hashed apply diverged from Update (count peak %d vs %d)",
					n, prefill, a.maxCount, b.maxCount)
			}
		}
	}
}

// referenceDecode is Decode as it stood before the Mersenne inverse:
// every nonzero cell's count inverted with the generic nt.PowMod.
func referenceDecode(r *Recovery) (map[uint64]int64, error) {
	work := r.Clone()
	recovered := make(map[uint64]int64)
	peeled := 0
	for progress := true; progress; {
		progress = false
		for ci := range work.cells {
			c := work.cells[ci]
			if c.count == 0 {
				continue
			}
			cm := fieldOf(c.count)
			x := nt.MulModMersenne61(c.keySum, nt.PowMod(cm, nt.MersennePrime61-2, nt.MersennePrime61))
			if x >= work.universe || work.bucket(ci/work.perTable, x) != ci ||
				c.fpSum != nt.MulModMersenne61(cm, work.fp.Field(x)) {
				continue
			}
			work.remove(x, c.count)
			if recovered[x] += c.count; recovered[x] == 0 {
				delete(recovered, x)
			}
			progress = true
			if peeled++; peeled > subtables*work.perTable+work.capacity {
				return nil, ErrDense
			}
		}
	}
	for _, c := range work.cells {
		if c != (cell{}) {
			return nil, ErrDense
		}
	}
	if len(recovered) > work.capacity {
		return nil, ErrDense
	}
	return recovered, nil
}

// TestDecodeMatchesReference: decoded vectors and DENSE verdicts are
// those of the reference on random sketches straddling the capacity —
// sparse, borderline, dense, with cancellations and wide counts — and
// Decode still restores the sketch.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	verdicts := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		capacity := 1 + rng.Intn(40)
		r := NewRecovery(rand.New(rand.NewSource(int64(trial))), capacity, 1<<32)
		support := rng.Intn(3 * capacity)
		for i := 0; i < support; i++ {
			x := uint64(rng.Int63n(1 << 32))
			d := []int64{1, -1, 3, 1 << 45, -(1 << 45), math.MaxInt64, math.MinInt64}[rng.Intn(7)]
			r.Update(x, d)
			if rng.Intn(5) == 0 {
				r.Update(x, -d) // cancelled: must vanish from the decode
			}
		}
		before := append([]cell(nil), r.cells...)
		want, wantErr := referenceDecode(r)
		got, gotErr := r.Decode()
		if wantErr != gotErr || !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (capacity %d, %d keys): Decode = %v, %v; reference %v, %v",
				trial, capacity, support, got, gotErr, want, wantErr)
		}
		if !reflect.DeepEqual(before, r.cells) {
			t.Fatalf("trial %d: Decode did not restore the sketch", trial)
		}
		verdicts[gotErr == nil]++
	}
	if verdicts[true] < 50 || verdicts[false] < 50 {
		t.Fatalf("verdicts %v: want both sparse and DENSE well represented", verdicts)
	}
}

// TestInverseMatchesPowMod pins the addition chain against the generic
// exponentiation, zero and the +-1 short cuts included.
func TestInverseMatchesPowMod(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	counts := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, int64(nt.MersennePrime61), -int64(nt.MersennePrime61)}
	for i := 0; i < 2000; i++ {
		counts = append(counts, int64(rng.Uint64()))
	}
	for _, c := range counts {
		want := nt.PowMod(fieldOf(c), nt.MersennePrime61-2, nt.MersennePrime61)
		if got := inverse(c); got != want {
			t.Fatalf("inverse(%d) = %d, want %d", c, got, want)
		}
	}
}
