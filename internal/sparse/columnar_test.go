package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
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

// TestHashColumnApplyMatchesUpdate: an entry built from its key's
// column hashes — the distinct keys hashed once, whatever updates carry
// them — and applied to any sketch sharing the hash functions must
// leave it exactly as Update would: cells and the count peak, over
// deltas of every shape, including the int64 whose negation overflows.
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
		b := &core.Batch{Idx: keys, Delta: ds}
		dk, slot := core.Distinct(b)
		fp, cells := make([]uint64, len(dk)), make([]uint32, 3*len(dk))
		proto.HashColumn(dk, make([]uint64, len(dk)), fp, cells)
		entries := make([]Entry, n)
		for j, o := range slot {
			entries[j] = MakeEntry(keys[j], ds[j], fp[o], cells[3*o:])
		}
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
