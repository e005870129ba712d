package l0

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// mapExact is ExactSmall as a Go map from occupied bucket to counter —
// what the flat table replaced — under the latch rule: past the promise
// bound it answers LARGE for good and keeps nothing, and a merge whose
// union passes the bound charges c live pairs, no more. The table is
// held to it: same counts, same latch, same high-water mark, same bytes.
type mapExact struct {
	e        *ExactSmall // supplies c, the hash, the bucket range and the prime; its table is never touched
	counters map[uint64]uint64
	overflow bool
	maxLive  int
}

func (m *mapExact) update(i uint64, delta int64) {
	if delta == 0 || m.overflow {
		return
	}
	b := m.e.hash.Range(i, m.e.buckets)
	cur, ok := m.counters[b]
	if !ok && len(m.counters) >= m.e.c {
		m.latch()
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

func (m *mapExact) latch() {
	m.overflow = true
	clear(m.counters)
}

func (m *mapExact) merge(o *mapExact) {
	if m.overflow || o.overflow {
		m.latch()
	} else {
		for b, v := range o.counters {
			if nv := nt.AddMod(m.counters[b], v, m.e.prime); nv == 0 {
				delete(m.counters, b)
			} else {
				m.counters[b] = nv
			}
		}
		m.maxLive = max(m.maxLive, min(len(m.counters), m.e.c))
		if len(m.counters) > m.e.c {
			m.latch()
		}
	}
	m.maxLive = max(m.maxLive, o.maxLive)
}

func (m *mapExact) marshal(t *testing.T) []byte {
	w := wire.State(nil)
	w.Bool(m.overflow)
	w.U32(uint32(m.maxLive))
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
	if got.overflow && len(got.counters.cells) != 0 {
		t.Fatalf("a latched structure keeps a table of %d cells", len(got.counters.cells))
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
// replaced through the same stream. Even shards draw from c keys, so
// they never latch and their counters are created, cancelled to zero
// (the backward-shift delete) and grown for the whole stream; odd
// shards draw from a few more and latch on the way. Then a merge into
// an empty structure (the growth path), a merge of all eight (the
// latch), more updates, a clone and a marshal round trip.
func TestBucketTableMatchesMap(t *testing.T) {
	for _, c := range []int{1, 3, 10, 132} {
		rng := rand.New(rand.NewSource(int64(c)))
		newPair := func() (*ExactSmall, *mapExact) {
			return NewExactSmall(rand.New(rand.NewSource(9)), c),
				&mapExact{e: NewExactSmall(rand.New(rand.NewSource(9)), c), counters: map[uint64]uint64{}}
		}
		shards := make([]*ExactSmall, 8)
		refs := make([]*mapExact, 8)
		for k := range shards {
			shards[k], refs[k] = newPair()
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
			step(k, uint64(c+k%2*(c/4+2)))
			if n%97 == 0 {
				requireSameExact(t, refs[k], shards[k])
			}
		}
		for k := range shards {
			requireSameExact(t, refs[k], shards[k])
			if k%2 == 0 && shards[k].overflow {
				t.Fatalf("c=%d: shard %d latched drawing from %d keys", c, k, c)
			}
		}
		grown, grownRef := newPair()
		if err := grown.Merge(shards[2]); err != nil {
			t.Fatal(err)
		}
		grownRef.merge(refs[2])
		requireSameExact(t, grownRef, grown)
		for k := 1; k < len(shards); k++ {
			if err := shards[0].Merge(shards[k]); err != nil {
				t.Fatal(err)
			}
			refs[0].merge(refs[k])
			requireSameExact(t, refs[0], shards[0])
		}
		clone := shards[0].CloneInto(nil)
		for n := 0; n < 2000; n++ {
			step(0, uint64(2*c+2)) // all ignored: the merge latched
		}
		requireSameExact(t, refs[0], shards[0])
		if n, _ := clone.Count(); n != 0 || !clone.overflow {
			t.Fatalf("c=%d: clone reads (%d, overflow %v) after its source moved on", c, n, clone.overflow)
		}
		for _, k := range []int{0, 2} {
			restored, _ := newPair()
			requireSameExact(t, refs[k], wiretest.Restore(t, restored, wiretest.MustMarshal(t, shards[k])))
		}
	}
}

// TestExactSmallDecodedBoundSizesNothing: the promise bound c is the
// constructor's and sizes no table — a structure built under c = 300
// (360 000 buckets) decodes a one-counter state into a table of a few
// cells, and its update path grows the table as it fills.
func TestExactSmallDecodedBoundSizesNothing(t *testing.T) {
	fresh := func() *ExactSmall { return NewExactSmall(rand.New(rand.NewSource(4)), 300) }
	e := fresh()
	e.Update(1, 1)
	enc := wiretest.MustMarshal(t, e)
	restored := fresh()
	if err := wire.Fill(enc, restored); err != nil {
		t.Fatal(err)
	}
	if n, ok := restored.Count(); !ok || n != 1 || len(restored.counters.cells) > 8 {
		t.Fatalf("restored Count = (%d, %v) with a table of %d cells", n, ok, len(restored.counters.cells))
	}
	for i := uint64(0); i < 200; i++ {
		restored.Update(i, 1)
	}
	// 200 keys in 360 000 buckets: a collision or two at most.
	if n, ok := restored.Count(); !ok || n < 198 || n > 200 {
		t.Fatalf("Count = (%d, %v) after 200 distinct keys under a bound of 300", n, ok)
	}
}

// TestExactSmallLatchedDecodeSizesNothing: a latched structure lists no
// counters, so a latched state that carries a list — however long — is
// refused before anything is sized by it.
func TestExactSmallLatchedDecodeSizesNothing(t *testing.T) {
	fresh := func() *ExactSmall { return NewExactSmall(rand.New(rand.NewSource(4)), 2000) } // 4c^2 = 16M buckets
	e := fresh()
	e.latch()
	enc := wiretest.MustMarshal(t, e)
	if err := wire.Fill(enc, fresh()); err != nil {
		t.Fatalf("an honest latched state refused: %v", err)
	}
	head := enc[:len(enc)-4] // all but the empty list's count
	for _, n := range []int{1, 1 << 16} {
		blob := binary.LittleEndian.AppendUint32(slices.Clone(head), uint32(n))
		for i := range n {
			blob = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(blob, uint64(3*i)), uint64(i+1))
		}
		d := fresh()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := wire.Fill(blob, d)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a latched state listing %d counters decoded", n)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 512 {
			t.Fatalf("refusing a latched state listing %d counters allocated %d bytes", n, alloc)
		}
	}
}

// parentExact is ExactSmall's update and merge as they were before
// LARGE became a latch: past the bound a structure went on probing,
// adding to and freeing its counters, and a merge added into a latched
// table. It is the reference the latch is held to; like the latch, its
// merge charges a union past the bound c live pairs, no more.
type parentExact ExactSmall

func (p *parentExact) update(i uint64, delta int64) {
	if delta != 0 {
		p.updateBucket(p.hash.Range(i, p.buckets), delta)
	}
}

func (p *parentExact) updateBucket(b uint64, delta int64) {
	t := &p.counters
	i := t.find(b)
	if t.n >= p.c && t.cells[i].count == 0 {
		p.overflow = true
		return
	}
	if t.addMod(i, b, residue(delta, p.prime), p.prime) && t.n > p.maxLive {
		p.maxLive = t.n
	}
}

func (p *parentExact) merge(o *parentExact) error {
	for _, c := range o.counters.cells {
		if c.count != 0 {
			p.counters.addMod(p.counters.find(c.bucket), c.bucket, c.count, p.prime)
		}
	}
	p.overflow = p.overflow || o.overflow || p.counters.n > p.c
	p.maxLive = max(p.maxLive, min(p.counters.n, p.c), o.maxLive)
	return nil
}

func (p *parentExact) clone() *parentExact { return (*parentExact)((*ExactSmall)(p).CloneInto(nil)) }

// emptied is p as the latch leaves it: a latched structure's counter
// list emptied, and the high-water mark the structure under test holds —
// the one field a merge that meets a latched side may leave lower.
func (p *parentExact) emptied(maxLive int) *ExactSmall {
	c := ExactSmall(*p)
	if c.overflow {
		c.counters = bucketTable{}
	}
	c.maxLive = maxLive
	return &c
}

// requireLatchMatches holds got to its parent-body twin: the same
// answers, no table once latched, the same bytes once the twin's
// latched list is emptied, a high-water mark no higher — and equal, so
// equal SpaceBits, while only updates and copies made the pair.
func requireLatchMatches(t *testing.T, ref *parentExact, got *ExactSmall, updateOnly bool, where string) {
	t.Helper()
	want := (*ExactSmall)(ref)
	wn, wok := want.Count()
	if n, ok := got.Count(); n != wn || ok != wok || got.CountSaturating() != want.CountSaturating() {
		t.Fatalf("%s: Count (%d, %v), the parent body's (%d, %v)", where, n, ok, wn, wok)
	}
	if got.overflow && (got.counters.n != 0 || len(got.counters.cells) != 0) {
		t.Fatalf("%s: a latched structure keeps %d counters in %d cells", where, got.counters.n, len(got.counters.cells))
	}
	if got.maxLive > ref.maxLive || updateOnly && got.SpaceBits() != want.SpaceBits() {
		t.Fatalf("%s: maxLive %d, the parent body's %d", where, got.maxLive, ref.maxLive)
	}
	if !bytes.Equal(wiretest.MustMarshal(t, got), wiretest.MustMarshal(t, ref.emptied(got.maxLive))) {
		t.Fatalf("%s: bytes differ from the parent body's with its latched list emptied", where)
	}
}

// refL0 is an Estimator's two owners of ExactSmalls — its small-L0
// side structure and its level estimator — driven by the parent's
// bodies, the level window at a copy of the Estimator's R_t. Nothing
// else in an Estimator reads them, so swapping them in gives the
// parent's Estimator.
type refL0 struct {
	small *parentExact
	final *RoughL0
	rough *RoughF0 // fed as the Estimator's is
}

func newRefL0(e *Estimator) *refL0 {
	r := &refL0{small: (*parentExact)(e.small.CloneInto(nil)), final: e.final.CloneInto(nil)}
	if e.rough != nil {
		r.rough = e.rough.CloneInto(nil)
	}
	return r
}

// update is what Estimator.Update does to the two.
func (r *refL0) update(i uint64, delta int64) {
	if delta != 0 {
		if r.rough != nil {
			r.rough.Update(i)
		}
		r.final.levels.Sync(r.rough, r.final.span, r.final.newLevel)
		refLevelUpdate(r.final, i, delta)
		r.small.update(i, delta)
	}
}

// refLevelUpdate is RoughL0's apply step with the parent's body at the
// item's level.
func refLevelUpdate(f *RoughL0, i uint64, delta int64) {
	if b := f.levels.At(min(hash.LSB(f.h.Field(i), f.maxLevel), f.maxLevel)); b != nil {
		(*parentExact)(b).update(i, delta)
	}
}

// merge is what Estimator.Merge does to the two.
func (r *refL0) merge(o *refL0) {
	r.small.merge(o.small)
	if r.rough != nil {
		r.rough.Merge(o.rough)
	}
	f := r.final
	f.levels.Merge(&o.final.levels, func(dst, src *ExactSmall) error {
		return (*parentExact)(dst).merge((*parentExact)(src))
	}, (*ExactSmall).CloneInto)
	f.levels.Sync(r.rough, f.span, f.newLevel)
}

func (r *refL0) clone() *refL0 {
	c := &refL0{small: r.small.clone(), final: r.final.CloneInto(nil)}
	if r.rough != nil {
		c.rough = r.rough.CloneInto(nil)
	}
	return c
}

// as returns e with the reference's two swapped in, each ExactSmall
// emptied to e's high-water marks when emptied is set.
func (r *refL0) as(e *Estimator, emptied bool) *Estimator {
	c := *e
	c.small, c.final = (*ExactSmall)(r.small), r.final
	if emptied {
		c.small = r.small.emptied(e.small.maxLive)
		c.final = r.final.CloneInto(nil)
		for j, b := range c.final.levels.Each {
			*b = *(*parentExact)(b).emptied(e.final.levels.At(j).maxLive)
		}
	}
	return &c
}

func requireL0Matches(t *testing.T, r *refL0, e *Estimator, updateOnly bool, where string) {
	t.Helper()
	requireLatchMatches(t, r.small, e.small, updateOnly, where+": small")
	if a, b := e.final.LiveLevels(), r.final.LiveLevels(); a != b {
		t.Fatalf("%s: %d live levels, the parent body's %d", where, a, b)
	}
	for j, b := range r.final.levels.Each {
		lv := e.final.levels.At(j)
		if lv == nil {
			t.Fatalf("%s: level %d is live only in the parent body's", where, j)
		}
		requireLatchMatches(t, (*parentExact)(b), lv, updateOnly, fmt.Sprintf("%s: level %d", where, j))
	}
	if a, b := e.final.Estimate(), r.final.Estimate(); a != b {
		t.Fatalf("%s: RoughL0.Estimate %d, the parent body's %d", where, a, b)
	}
	parent := r.as(e, false)
	if a, b := e.Estimate(), parent.Estimate(); a != b {
		t.Fatalf("%s: Estimator.Estimate %v, the parent body's %v", where, a, b)
	}
	if updateOnly && e.SpaceBits() != parent.SpaceBits() {
		t.Fatalf("%s: SpaceBits %d, the parent body's %d", where, e.SpaceBits(), parent.SpaceBits())
	}
	if !bytes.Equal(wiretest.MustMarshal(t, e), wiretest.MustMarshal(t, r.as(e, true))) {
		t.Fatalf("%s: Estimator bytes differ from the parent body's with latched lists emptied", where)
	}
}

// TestLatchMatchesParentBody: a latched ExactSmall stops keeping
// counters, against the parent's bodies that kept them. Random streams
// through Update, UpdateColumn, merges in both orders with either side
// latched, CloneInto and marshal round trips — the parent body's own
// encoding, counters and all, included — must leave the same answers
// (Count, CountSaturating, RoughL0.Estimate, Estimator.Estimate), the
// same bytes once the parent's latched lists are emptied, and the same
// SpaceBits on every path that only updated.
func TestLatchMatchesParentBody(t *testing.T) {
	t.Run("ExactSmall", func(t *testing.T) {
		for _, c := range []int{1, 3, 10, 100} {
			rng := rand.New(rand.NewSource(int64(c) + 100))
			const pairs = 4
			fresh := func() (*ExactSmall, *parentExact) {
				return NewExactSmall(rand.New(rand.NewSource(9)), c), (*parentExact)(NewExactSmall(rand.New(rand.NewSource(9)), c))
			}
			got, ref := make([]*ExactSmall, pairs), make([]*parentExact, pairs)
			updateOnly := make([]bool, pairs)
			for k := range got {
				got[k], ref[k] = fresh()
				updateOnly[k] = true
			}
			// Pair k draws from max(1, c(k+1)/2) shared keys: the first
			// two never latch by update, the last two do.
			key := func(k int) uint64 { return uint64(rng.Intn(max(1, c*(k+1)/2))) * 0x9E3779B97F4A7C15 }
			delta := func() int64 {
				if rng.Intn(40) == 0 {
					return int64(got[0].prime) // zero modulo the prime
				}
				return int64(rng.Intn(5) - 2)
			}
			var merges [2][2]int // by (receiver latched, argument latched)
			for step := 0; step < 3000; step++ {
				a := rng.Intn(pairs)
				b := (a + 1 + rng.Intn(pairs-1)) % pairs
				where := fmt.Sprintf("c=%d step %d", c, step)
				switch op := rng.Intn(20); {
				case op < 10:
					i, d := key(a), delta()
					got[a].Update(i, d)
					ref[a].update(i, d)
				case op < 15:
					n := 1 + rng.Intn(40)
					batch := &core.Batch{Idx: make([]uint64, n), Delta: make([]int64, n)}
					for j := range n {
						batch.Idx[j], batch.Delta[j] = key(a), delta()
						ref[a].update(batch.Idx[j], batch.Delta[j])
					}
					got[a].UpdateColumn(batch, make([]uint64, n))
				case op < 17:
					merges[b2i(got[a].overflow)][b2i(got[b].overflow)]++
					updateOnly[a] = updateOnly[a] && updateOnly[b] && !got[a].overflow && !got[b].overflow
					if err := got[a].Merge(got[b]); err != nil {
						t.Fatal(err)
					}
					ref[a].merge(ref[b])
					requireLatchMatches(t, ref[b], got[b], updateOnly[b], where+": merge argument")
				case op == 17:
					got[a], ref[a], updateOnly[a] = got[b].CloneInto(got[a]), ref[b].clone(), updateOnly[b]
				case op == 18:
					restored, _ := fresh()
					got[a] = wiretest.Restore(t, restored, wiretest.MustMarshal(t, got[a]))
				default:
					got[a], ref[a] = fresh()
					updateOnly[a] = true
				}
				requireLatchMatches(t, ref[a], got[a], updateOnly[a], where)
			}
			for recv, row := range merges {
				for arg, n := range row {
					if n == 0 {
						t.Errorf("c=%d: no merge with receiver latched %v and argument latched %v", c, recv == 1, arg == 1)
					}
				}
			}
		}
	})
	t.Run("RoughL0", func(t *testing.T) {
		// Level 0 held at its bound for many batches — roughC keys in
		// distinct buckets, repeated and now and then cancelled — before
		// one more key may latch it: the batch path must neither latch
		// early nor apply a key it did not hash.
		const n = 1 << 20
		mk := func() *RoughL0 { return NewRoughL0(rand.New(rand.NewSource(6)), n) }
		got, ref := &soloL0{RoughL0: mk()}, mk()
		lv0 := got.levels.At(0)
		var keys []uint64
		seen := map[uint64]bool{}
		for i := uint64(1); len(keys) <= roughC; i++ {
			k := i * 0x9E3779B97F4A7C15 % n
			if b := lv0.hash.Range(k, lv0.buckets); hash.LSB(got.h.Field(k), got.maxLevel) == 0 && !seen[b] {
				seen[b] = true
				keys = append(keys, k)
			}
		}
		rng := rand.New(rand.NewSource(13))
		col := make([]uint64, 2*300)
		atBound := 0
		for round := 0; round < 300; round++ {
			pool := roughC + b2i(round >= 250) // the last rounds may latch
			m := 1 + rng.Intn(300)
			b := &core.Batch{Idx: make([]uint64, m), Delta: make([]int64, m)}
			for j := range m {
				b.Idx[j], b.Delta[j] = keys[rng.Intn(pool)], []int64{0, 1, 1, 2, -1}[rng.Intn(5)]
				refLevelUpdate(ref, b.Idx[j], b.Delta[j])
			}
			got.UpdateColumn(b, col)
			where := fmt.Sprintf("round %d", round)
			for j, lv := range ref.levels.Each {
				requireLatchMatches(t, (*parentExact)(lv), got.levels.At(j), true, fmt.Sprintf("%s: level %d", where, j))
			}
			if a, b := got.Estimate(), ref.Estimate(); a != b {
				t.Fatalf("%s: RoughL0.Estimate %d, the parent body's %d", where, a, b)
			}
			if lv := got.levels.At(0); !lv.overflow && lv.counters.n == roughC {
				atBound++
			}
		}
		if atBound < 100 || !got.levels.At(0).overflow {
			t.Fatalf("level 0 sat at its bound after %d batches and latched %v; want many, then the latch", atBound, got.levels.At(0).overflow)
		}
	})
	t.Run("Estimator", func(t *testing.T) {
		const n = 1 << 30
		for _, windowed := range []bool{false, true} {
			p := Params{N: n, Eps: 0.25, Windowed: windowed, Window: 8} // wide enough that low levels latch
			rng := rand.New(rand.NewSource(12))
			us := burstStream(rng, n, 8, 40, 200)
			mk := func() (*Estimator, *refL0) {
				e := NewEstimator(rand.New(rand.NewSource(41)), p)
				return e, newRefL0(e)
			}
			feed := func(e *Estimator, r *refL0, us []stream.Update, updateOnly bool, where string) {
				for off := 0; off < len(us); {
					m := min(1+rng.Intn(512), len(us)-off)
					if rng.Intn(8) == 0 {
						for _, u := range us[off : off+m] {
							e.Update(u.Index, u.Delta)
						}
					} else {
						core.UpdateBatch(e.UpdateColumns, us[off:off+m])
					}
					for _, u := range us[off : off+m] {
						r.update(u.Index, u.Delta)
					}
					requireL0Matches(t, r, e, updateOnly, fmt.Sprintf("%s, updates [%d,%d)", where, off, off+m))
					off += m
				}
			}
			where := fmt.Sprintf("windowed=%v", windowed)
			whole, wholeRef := mk()
			feed(whole, wholeRef, us[:len(us)/2], true, where)
			old := whole.CloneInto(nil)
			feed(whole, wholeRef, us[len(us)/2:], true, where)
			whole = whole.CloneInto(old)
			restored, _ := mk()
			wiretest.Restore(t, restored, wiretest.MustMarshal(t, whole))
			requireL0Matches(t, wholeRef, restored, true, where+": round trip")

			// A short stream leaves small and every level counting.
			part, partRef := mk()
			feed(part, partRef, us[:60], true, where+": part")
			latchedLevels := 0
			for _, lv := range whole.final.levels.Each {
				latchedLevels += b2i(lv.overflow)
			}
			if !whole.small.overflow || part.small.overflow || latchedLevels == 0 {
				t.Fatalf("%s: small latched %v and %v, %d levels latched; want the whole stream's small and some of its levels only",
					where, whole.small.overflow, part.small.overflow, latchedLevels)
			}
			for _, order := range []struct {
				name     string
				dst, src *Estimator
				dr, sr   *refL0
			}{
				{"latched receiver", restored.CloneInto(nil), part, wholeRef.clone(), partRef},
				{"latched argument", part.CloneInto(nil), restored, partRef.clone(), wholeRef},
			} {
				if err := order.dst.Merge(order.src); err != nil {
					t.Fatal(err)
				}
				order.dr.merge(order.sr)
				requireL0Matches(t, order.dr, order.dst, false, where+": "+order.name)
				feed(order.dst, order.dr, revisit(rng, us, 3000), false, where+": "+order.name)
			}
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLatchCounterCountsLatches: repro_l0_exact_latched_total grows by
// exactly one for each structure an update latches — not again for the
// updates it then ignores, and not for a merge, clone or decode that
// inherits a latch.
func TestLatchCounterCountsLatches(t *testing.T) {
	start := latches.Load()
	want := int64(0)
	check := func(what string) {
		t.Helper()
		if got := latches.Load() - start; got != want {
			t.Fatalf("after %s the counter reads %d latches, want %d", what, got, want)
		}
	}
	mk := func() *ExactSmall { return NewExactSmall(rand.New(rand.NewSource(5)), 3) }
	// k[0..3] land in four distinct buckets.
	var k []uint64
	seen, proto := map[uint64]bool{}, mk()
	for i := uint64(1); len(k) < 4; i++ {
		if b := proto.hash.Range(i, proto.buckets); !seen[b] {
			seen[b] = true
			k = append(k, i)
		}
	}
	a := mk()
	a.Update(k[0], 1)
	a.Update(k[1], 1)
	a.Update(k[2], 1)
	a.Update(k[0], -1) // three live, then two
	a.Update(k[3], 1)  // three again: at the bound, not past it
	check("filling to the bound")
	a.Update(k[0], 1) // a fourth bucket: the latch
	want++
	check("the latching update")
	for i := uint64(0); i < 100; i++ {
		a.Update(i, 1)
	}
	check("updates to a latched structure")

	b := mk()
	col := make([]uint64, 6)
	b.UpdateColumn(&core.Batch{Idx: []uint64{k[0], k[1], k[2], k[3], k[3], k[0]}, Delta: []int64{1, 1, 1, 1, 1, 1}}, col)
	want++
	check("a batch that latches")
	b.UpdateColumn(&core.Batch{Idx: k, Delta: []int64{1, 1, 1, 1}}, col)
	check("a batch to a latched structure")

	c, d := mk(), mk()
	c.Update(k[0], 1)
	c.Update(k[1], 1)
	d.Update(k[2], 1)
	d.Update(k[3], 1)
	if err := c.Merge(d); err != nil || !c.overflow {
		t.Fatalf("merging four live buckets under a bound of three: err %v, latched %v", err, c.overflow)
	}
	e := mk()
	if err := e.Merge(a); err != nil || !e.overflow {
		t.Fatalf("merging a latched structure: err %v, latched %v", err, e.overflow)
	}
	wiretest.Restore(t, mk(), wiretest.MustMarshal(t, a))
	a.CloneInto(nil)
	check("merges, a decode and a clone")

	// A stream: every level of an unwindowed RoughL0 that reports LARGE
	// was latched once, by an update.
	r := &soloL0{RoughL0: NewRoughL0(rand.New(rand.NewSource(6)), 1<<20)}
	keys, deltas := make([]uint64, 3000), make([]int64, 3000)
	for j := range keys {
		keys[j], deltas[j] = uint64(j)*0x9E3779B97F4A7C15%(1<<20), 1
	}
	r.UpdateColumn(&core.Batch{Idx: keys, Delta: deltas}, make([]uint64, 2*len(keys)))
	for _, lv := range r.levels.Each {
		if lv.overflow {
			want++
		}
	}
	if want < 5 {
		t.Fatalf("only %d latches in the script, want the stream to latch several levels", want)
	}
	check("a stream through RoughL0")
}
