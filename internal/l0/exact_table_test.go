package l0

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nt"
	"repro/internal/wire"
)

// mapExact is ExactSmall as it was before its counters became a flat
// table — a Go map from occupied bucket to counter — kept as the
// reference the table is held to: same counts, same overflow latch,
// same high-water mark, same encoded bytes.
type mapExact struct {
	e        *ExactSmall // supplies c, the hash, the bucket range and the prime; its table is never touched
	counters map[uint64]uint64
	overflow bool
	maxLive  int
}

func (m *mapExact) update(i uint64, delta int64) {
	if delta == 0 {
		return
	}
	b := m.e.hash.Range(i, m.e.buckets)
	cur, ok := m.counters[b]
	if !ok && len(m.counters) >= m.e.c {
		m.overflow = true
		return
	}
	d := delta % int64(m.e.prime)
	if d < 0 {
		d += int64(m.e.prime)
	}
	nv := nt.AddMod(cur, uint64(d), m.e.prime)
	if nv == 0 {
		delete(m.counters, b)
		return
	}
	m.counters[b] = nv
	if !ok && len(m.counters) > m.maxLive {
		m.maxLive = len(m.counters)
	}
}

func (m *mapExact) merge(o *mapExact) {
	for b, v := range o.counters {
		if nv := nt.AddMod(m.counters[b], v, m.e.prime); nv == 0 {
			delete(m.counters, b)
		} else {
			m.counters[b] = nv
		}
	}
	m.overflow = m.overflow || o.overflow || len(m.counters) > m.e.c
	m.maxLive = max(m.maxLive, len(m.counters), o.maxLive)
}

func (m *mapExact) marshal(t *testing.T) []byte {
	w := wire.NewWriter(exactSmallMagic, formatV1)
	w.U32(uint32(m.e.c))
	w.U64(m.e.buckets)
	w.U64(m.e.prime)
	w.Bool(m.overflow)
	w.U32(uint32(m.maxLive))
	if err := w.Marshal(m.e.hash); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 0, len(m.counters))
	for b := range m.counters {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	w.U32(uint32(len(keys)))
	for _, b := range keys {
		w.U64(b)
		w.U64(m.counters[b])
	}
	return w.Bytes()
}

func requireSameExact(t *testing.T, want *mapExact, got *ExactSmall) {
	t.Helper()
	n, ok := got.Count()
	if ok == want.overflow || (ok && n != int64(len(want.counters))) {
		t.Fatalf("Count = (%d, %v), reference holds %d counters, overflow %v", n, ok, len(want.counters), want.overflow)
	}
	enc, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if ref := want.marshal(t); !bytes.Equal(enc, ref) {
		t.Fatalf("encoding differs from the map reference's (%d vs %d bytes, %d counters, maxLive %d vs %d)",
			len(enc), len(ref), got.counters.n, got.maxLive, want.maxLive)
	}
	// Every cell must be findable from its home: a delete that left a
	// hole in a probe chain shows up here even if no later update
	// happened to trip over it.
	for _, c := range got.counters.cells {
		if c.count != 0 && got.counters.cells[got.counters.find(c.bucket)] != c {
			t.Fatalf("bucket %d is in the table but not on its probe chain", c.bucket)
		}
	}
}

// TestBucketTableMatchesMap drives the flat table and the map it
// replaced through the same stream: a key space a little over the
// promise bound, so counters are created, cancelled to zero (the
// backward-shift delete) and refused (the overflow latch) throughout,
// and then a merge of eight structures that pushes the table far past
// the bound it fills to on its own (the growth path), followed by more
// updates, a clone and a marshal round trip.
func TestBucketTableMatchesMap(t *testing.T) {
	for _, c := range []int{1, 3, 10, 132} {
		rng := rand.New(rand.NewSource(int64(c)))
		shards := make([]*ExactSmall, 8)
		refs := make([]*mapExact, 8)
		for k := range shards {
			shards[k] = NewExactSmall(rand.New(rand.NewSource(9)), c)
			refs[k] = &mapExact{e: NewExactSmall(rand.New(rand.NewSource(9)), c), counters: map[uint64]uint64{}}
		}
		live := make(map[uint64]int64)
		step := func(k int, space uint64) {
			i := uint64(k)<<32 | uint64(rng.Intn(int(space)))
			d := int64(rng.Intn(5) - 2)
			if f := live[i]; f != 0 && rng.Intn(3) == 0 {
				d = -f // cancel the key outright
			}
			if rng.Intn(50) == 0 {
				d = int64(shards[k].prime) // a nonzero delta that is zero modulo the prime
			}
			live[i] += d
			shards[k].Update(i, d)
			refs[k].update(i, d)
		}
		for n := 0; n < 4000; n++ {
			k := n % len(shards)
			step(k, uint64(c+c/4+2))
			if n%97 == 0 {
				requireSameExact(t, refs[k], shards[k])
			}
		}
		for k := range shards {
			requireSameExact(t, refs[k], shards[k])
		}
		for k := 1; k < len(shards); k++ {
			if err := shards[0].Merge(shards[k]); err != nil {
				t.Fatal(err)
			}
			refs[0].merge(refs[k])
			requireSameExact(t, refs[0], shards[0])
		}
		if c > 1 && shards[0].counters.n <= c {
			t.Fatalf("c=%d: the merged structure holds %d counters, want it past the promise bound", c, shards[0].counters.n)
		}
		clone := shards[0].CloneInto(nil)
		for n := 0; n < 2000; n++ {
			step(0, uint64(2*c+2)) // mostly cancellations and refusals now
		}
		requireSameExact(t, refs[0], shards[0])
		if n, _ := clone.Count(); n != 0 || !clone.overflow && c > 1 {
			t.Fatalf("c=%d: clone reads (%d, overflow %v) after its source moved on", c, n, clone.overflow)
		}
		enc, _ := shards[0].MarshalBinary()
		restored := new(ExactSmall)
		if err := restored.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		requireSameExact(t, refs[0], restored)
	}
}

// TestExactSmallDecodedBoundSizesNothing: the promise bound in an
// encoding is any uint32; the restored table is sized by the counters
// present, never by the bound.
func TestExactSmallDecodedBoundSizesNothing(t *testing.T) {
	e := NewExactSmall(rand.New(rand.NewSource(4)), 10)
	e.Update(1, 1)
	enc, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(enc[3:], 1<<31) // c, the first field after magic and version
	restored := new(ExactSmall)
	if err := restored.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if restored.c != 1<<31 || len(restored.counters.cells) > 8 {
		t.Fatalf("restored c = %d with a table of %d cells", restored.c, len(restored.counters.cells))
	}
	for i := uint64(0); i < 200; i++ { // the update path grows the table as it fills
		restored.Update(i, 1)
	}
	// 400 buckets (the honest bound's 4c^2) take 200 keys with many
	// collisions; an honest c = 10 would have latched LARGE at 10.
	if n, ok := restored.Count(); !ok || n < 50 {
		t.Fatalf("Count = (%d, %v) after 200 distinct inserts under a bound of 2^31", n, ok)
	}
}
