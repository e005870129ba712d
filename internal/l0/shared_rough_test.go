package l0

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/wire/wiretest"
)

// soloL0 is a RoughL0 standing alone with an R_t of its own, fed first:
// the parent's RoughL0, whose constructor drew that RoughF0's 16 hashes
// right after the level hash and seed — so the same rng builds the same
// instance. The baseline has no rough and stands at 0. MarshalBinary is
// the parent's (v1) encoding, the rough embedded.
type soloL0 struct {
	*RoughL0
	rough *RoughF0
}

func newSolo(rng *rand.Rand, n uint64, windowed bool, window int) *soloL0 {
	s := &soloL0{RoughL0: newRoughL0(rng, n, windowed, window)}
	if windowed {
		s.rough = NewRoughF0(rng, 16)
	}
	return s
}

// levelUpdate applies an item to its level under whatever window f holds.
func levelUpdate(f *RoughL0, i uint64, delta int64) {
	if b := f.levels.At(min(hash.LSB(f.h.Field(i), f.maxLevel), f.maxLevel)); b != nil {
		b.Update(i, delta)
	}
}

// Update is the parent's RoughL0.Update: rough estimate, then the window
// it produces, then the item.
func (s *soloL0) Update(i uint64, delta int64) {
	s.levels.Observe(s.rough, i, s.span, s.newLevel)
	levelUpdate(s.RoughL0, i, delta)
}

// UpdateColumn is the parent's RoughL0.UpdateColumn: the level window
// cuts the batch at its own R_t events. col holds twice the distinct keys.
func (s *soloL0) UpdateColumn(b *core.Batch, col []uint64) {
	keys, _ := core.Distinct(b)
	lvl, bucket := col[:len(keys)], col[len(keys):2*len(keys)]
	s.levelColumn(keys, lvl)
	s.levels.CutPlanned(s.rough, b, bucket, s.span, s.newLevel, func(lo, hi, seen int) {
		s.applyRun(s.levels.syncedAt, b, lo, hi, seen, lvl, bucket)
	})
}

// Merge is the parent's RoughL0.Merge: the two R_t merge, then the
// levels, re-synced at the merged estimate.
func (s *soloL0) Merge(o *soloL0) error {
	if s.rough != nil {
		if err := s.rough.Merge(o.rough); err != nil {
			return err
		}
	}
	if err := s.levels.Merge(&o.levels, (*ExactSmall).Merge, (*ExactSmall).CloneInto); err != nil {
		return err
	}
	s.levels.Sync(s.rough, s.span, s.newLevel)
	return nil
}

func (s *soloL0) clone() *soloL0 {
	c := &soloL0{RoughL0: s.RoughL0.CloneInto(nil)}
	if s.rough != nil {
		c.rough = s.rough.CloneInto(nil)
	}
	return c
}

// restore decodes the parent's encoding: the level estimator through
// today's v1 decoder, the R_t it drops kept from the same bytes.
func (s *soloL0) restore(t testing.TB) *soloL0 {
	c := &soloL0{RoughL0: wiretest.Restore[RoughL0](t, wiretest.MustMarshal(t, s))}
	if s.rough != nil {
		c.rough = wiretest.Restore[RoughF0](t, wiretest.MustMarshal(t, s.rough))
	}
	return c
}

func (s *soloL0) MarshalBinary() ([]byte, error) {
	v2, err := s.RoughL0.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var rough []byte
	if s.rough != nil {
		if rough, err = s.rough.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	return spliceV1(v2, s.RoughL0, rough), nil
}

// spliceV1 turns r's v2 encoding into the v1 one: version 1, and — for
// a windowed r — rough's nested bytes after the level hash.
func spliceV1(v2 []byte, r *RoughL0, rough []byte) []byte {
	at := 3 + 25 + 4 + r.h.EncodedLen() // magic, version, five fixed fields, the level hash
	v1 := slices.Clone(v2[:at])
	v1[2] = formatV1
	if r.windowed {
		v1 = append(binary.LittleEndian.AppendUint32(v1, uint32(len(rough))), rough...)
	}
	return append(v1, v2[at:]...)
}

// parentL0 is the parent's two-rough Estimator, kept as the reference
// for the shared R_t: its per-item body verbatim, rows at e.rough's
// R_t and Lemma 20's levels (final) at an R_t of their own, the
// RoughF0 the parent's NewEstimator drew last. e.final beside it is the
// level estimator the change keeps, fed per item at e.rough's R_t —
// what the Estimator under test must hold byte for byte.
type parentL0 struct {
	e     *Estimator
	final *soloL0
}

func newParentL0(seed int64, p Params) *parentL0 {
	rng := rand.New(rand.NewSource(seed))
	e := NewEstimator(rng, p)
	r := &parentL0{e: e, final: &soloL0{RoughL0: e.final.CloneInto(nil)}}
	if p.Windowed {
		r.final.rough = NewRoughF0(rng, 16)
	}
	return r
}

// update is the parent's Estimator.Update, e.final fed beside its final.
func (r *parentL0) update(i uint64, delta int64) {
	if delta == 0 {
		return
	}
	e := r.e
	e.rows.Observe(e.rough, i, e.span, e.newRow)
	r.final.Update(i, delta)
	e.final.levels.Sync(e.rough, e.final.span, e.final.newLevel)
	levelUpdate(e.final, i, delta)
	e.small.Update(i, delta)
	if row := e.rows.At(min(hash.LSB(e.h1.Field(i), e.maxRow), e.maxRow)); row != nil {
		bins := *row
		id := e.h2.Range(i, cube(e.k))
		bin := e.h3.Range(id, uint64(e.k))
		mult := e.u[e.h4.Range(id, uint64(e.k))]
		bins[bin] = nt.AddMod(bins[bin], e.term(delta, mult), e.p)
	}
	ids := e.h2s.Range(i, cube(2*e.k))
	bin := e.h3s.Range(ids, uint64(2*e.k))
	mult := e.us[e.h4s.Range(ids, uint64(2*e.k))]
	e.singleRow[bin] = nt.AddMod(e.singleRow[bin], e.term(delta, mult), e.p)
}

// merge is the parent's Estimator.Merge, e.final merged beside its final.
func (r *parentL0) merge(t testing.TB, o *parentL0) {
	e, oe := r.e, o.e
	if e.rough != nil {
		if err := e.rough.Merge(oe.rough); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.final.Merge(o.final); err != nil {
		t.Fatal(err)
	}
	if err := e.final.levels.Merge(&oe.final.levels, (*ExactSmall).Merge, (*ExactSmall).CloneInto); err != nil {
		t.Fatal(err)
	}
	e.final.levels.Sync(e.rough, e.final.span, e.final.newLevel)
	if err := e.small.Merge(oe.small); err != nil {
		t.Fatal(err)
	}
	for b := range e.singleRow {
		e.singleRow[b] = nt.AddMod(e.singleRow[b], oe.singleRow[b], e.p)
	}
	if err := e.rows.Merge(&oe.rows, func(dst, src *[]uint64) error {
		for b := range *dst {
			(*dst)[b] = nt.AddMod((*dst)[b], (*src)[b], e.p)
		}
		return nil
	}, copyRow); err != nil {
		t.Fatal(err)
	}
	e.rows.Sync(e.rough, e.span, e.newRow)
}

func (r *parentL0) clone() *parentL0 { return &parentL0{e: r.e.CloneInto(nil), final: r.final.clone()} }

// parent is the parent's Estimator: e with the parent's final swapped in.
func (r *parentL0) parent() *Estimator {
	pe := *r.e
	pe.final = r.final.RoughL0
	return &pe
}

// marshal is the parent's encoding: e's, with the parent's final (v1,
// its R_t embedded) in place of e.final.
func (r *parentL0) marshal(t testing.TB) []byte {
	e := r.e
	enc := wiretest.MustMarshal(t, e)
	tail := 4 + e.small.EncodedLen() + 4 + e.rows.Len()*(8+8*e.k) // small, then the rows
	at := len(enc) - tail - 4 - e.final.EncodedLen()
	final := wiretest.MustMarshal(t, r.final)
	out := binary.LittleEndian.AppendUint32(slices.Clone(enc[:at]), uint32(len(final)))
	return append(append(out, final...), enc[len(enc)-tail:]...)
}

// requireSharedMatches holds e to the reference: the parent's answer,
// and the parent's rows, single row, small-L0 structure and rough bytes —
// everything the second R_t never touched — with final equal to Lemma
// 20 fed per item at that rough's R_t.
func requireSharedMatches(t *testing.T, r *parentL0, e *Estimator, where string) {
	t.Helper()
	if a, b := e.Estimate(), r.parent().Estimate(); a != b {
		t.Fatalf("%s: Estimate %v, the parent's %v", where, a, b)
	}
	for _, part := range []struct {
		name string
		a, b interface{ MarshalBinary() ([]byte, error) }
	}{{"small", e.small, r.e.small}, {"rough", e.rough, r.e.rough}, {"final", e.final, r.e.final}} {
		if part.name == "rough" && e.rough == nil {
			continue
		}
		if !bytes.Equal(wiretest.MustMarshal(t, part.a), wiretest.MustMarshal(t, part.b)) {
			t.Fatalf("%s: %s bytes differ from the reference's", where, part.name)
		}
	}
	if !slices.Equal(e.singleRow, r.e.singleRow) {
		t.Fatalf("%s: the single row differs from the parent's", where)
	}
	if e.rows.Len() != r.e.rows.Len() || e.rows.Peak() != r.e.rows.Peak() {
		t.Fatalf("%s: %d rows (peak %d), the parent's %d (peak %d)", where, e.rows.Len(), e.rows.Peak(), r.e.rows.Len(), r.e.rows.Peak())
	}
	for j, bins := range r.e.rows.Each {
		if got := e.rows.At(j); got == nil || !slices.Equal(*got, *bins) {
			t.Fatalf("%s: row %d differs from the parent's", where, j)
		}
	}
}

// TestSharedRoughMatchesParentBody: one R_t per estimator, against the
// parent's body that kept a second one for Lemma 20's levels. Random
// streams — zero, unit, multi-unit and huge deltas, bursts of fresh keys
// that raise R_t inside batches, batches past the column chunk — go
// through Update and UpdateColumns; merges run both ways, clones and
// round trips interleave, the parent's own encoding restored included.
// After every step the answer is the parent's, so are the rows, single
// row, small-L0 structure and rough, and final is Lemma 20 at that R_t.
func TestSharedRoughMatchesParentBody(t *testing.T) {
	const n = 1 << 30
	for run, p := range []Params{
		{N: n, Eps: 0.25, Windowed: true, Window: 3},
		{N: n, Eps: 0.25, Windowed: true}, // final's narrowest window: four levels either side
		{N: n, Eps: 0.25},
	} {
		rng := rand.New(rand.NewSource(31 + int64(run)))
		us := burstStream(rng, n, 9, 40, 300)
		type pair struct {
			e *Estimator
			r *parentL0
		}
		fresh := func() *pair { return &pair{NewEstimator(rand.New(rand.NewSource(43)), p), newParentL0(43, p)} }
		pairs := [2]*pair{fresh(), fresh()}
		ops := map[string]int{}
		for off, step := 0, 0; off < len(us); step++ {
			a, b := pairs[step%2], pairs[1-step%2]
			m := 1 + rng.Intn(400)
			if rng.Intn(6) == 0 {
				m = columnChunk - 100 + rng.Intn(1000) // past the column chunk, or just short of it
			}
			m = min(m, len(us)-off)
			if rng.Intn(8) == 0 {
				for _, u := range us[off : off+m] {
					a.e.Update(u.Index, u.Delta)
				}
			} else {
				core.UpdateBatch(a.e.UpdateColumns, us[off:off+m])
			}
			for _, u := range us[off : off+m] {
				a.r.update(u.Index, u.Delta)
			}
			where := fmt.Sprintf("%+v step %d, updates [%d,%d)", p, step, off, off+m)
			off += m
			requireSharedMatches(t, a.r, a.e, where)
			switch op := rng.Intn(10); op {
			case 0, 1: // merge either way: b into a, or a into b
				dst, src := a, b
				if op == 1 {
					dst, src = b, a
				}
				if err := dst.e.Merge(src.e); err != nil {
					t.Fatal(err)
				}
				dst.r.merge(t, src.r)
				requireSharedMatches(t, dst.r, dst.e, where+": merged")
				requireSharedMatches(t, src.r, src.e, where+": merge argument")
				ops["merge"]++
			case 2:
				b.e, b.r = a.e.CloneInto(b.e), a.r.clone()
				ops["clone"]++
			case 3:
				a.e = wiretest.Restore[Estimator](t, wiretest.MustMarshal(t, a.e))
				a.r.e = wiretest.Restore[Estimator](t, wiretest.MustMarshal(t, a.r.e))
				a.r.final = a.r.final.restore(t)
				ops["round trip"]++
			case 4: // a checkpoint the parent wrote: its final's levels, re-synced at the shared R_t
				a.e = wiretest.Restore[Estimator](t, a.r.marshal(t))
				a.r.e = wiretest.Restore[Estimator](t, wiretest.MustMarshal(t, a.r.e))
				a.r.e.final = wiretest.Restore[RoughL0](t, wiretest.MustMarshal(t, a.r.final))
				ops["parent's blob"]++
			}
			requireSharedMatches(t, a.r, a.e, where+": after the step")
		}
		t.Logf("%+v: %v", p, ops)
		if len(ops) != 4 {
			t.Fatalf("%+v: ran %v, want every kind of step", p, ops)
		}
	}
}

// TestParentReferenceIsTheParent pins the reference to the parent
// commit: its encoding after a fixed stream hashes to the digest the
// parent's own Estimator recorded, windowed and not.
func TestParentReferenceIsTheParent(t *testing.T) {
	const n = 1 << 30
	golden := map[bool]string{
		true:  "d4b65142630a03c9fdac4a380aa49d29bc885386bf988d3b23f6e5189cf49a6c",
		false: "531fc9a41a9e0a43fa9f27d69477786302ec9b75263a363fd73481e67f488541",
	}
	for _, windowed := range []bool{true, false} {
		r := newParentL0(41, Params{N: n, Eps: 0.25, Windowed: windowed, Window: 3})
		for _, u := range burstStream(rand.New(rand.NewSource(3)), n, 8, 40, 200) {
			r.update(u.Index, u.Delta)
		}
		sum := sha256.Sum256(r.marshal(t))
		if got := hex.EncodeToString(sum[:]); got != golden[windowed] {
			t.Errorf("windowed=%v: the reference encodes to %s, the parent to %s", windowed, got, golden[windowed])
		}
	}
}

// TestOneRoughScanPerBatch is the count witness: a warm UpdateColumns
// scans its distinct keys with ONE RoughF0 — 16 FieldBatch calls, one
// per copy, in its single pass — where the parent's two made 32. The
// other four are h1's row hash, final's level hash, and h3s and h3,
// 8-wise hashes whose RangeBatch evaluates through FieldBatch.
func TestOneRoughScanPerBatch(t *testing.T) {
	if !obs.Enabled {
		t.Skip("dispatch counters compiled out")
	}
	const n = 1 << 26
	e := NewEstimator(rand.New(rand.NewSource(16)), Params{N: n, Eps: 0.1, Windowed: true, Window: RecommendedWindow(8, 0.1)})
	b := core.GetBatch()
	defer core.PutBatch(b)
	rng := rand.New(rand.NewSource(17))
	fill := func() {
		b.Reset()
		for j := 0; j < 2048; j++ {
			b.Append(uint64(1+rng.Intn(1<<11))*0x9E3779B97F4A7C15%n, 1)
		}
	}
	for warm := 0; warm < 16; warm++ { // every key seen, R_t at rest, the scan block at its longest
		fill()
		e.UpdateColumns(b)
	}
	fieldCalls := func() int64 { s := hash.KernelDispatchStats(); return s.FieldScalar + s.FieldVector }
	for batch := 0; batch < 4; batch++ {
		fill()
		rt, before := e.rough.Estimate(), fieldCalls()
		e.UpdateColumns(b)
		if calls := fieldCalls() - before; calls != 16+4 || e.rough.Estimate() != rt {
			t.Fatalf("batch %d: %d FieldBatch calls (R_t %d -> %d), want 16 for the one rough scan + 4", batch, calls, rt, e.rough.Estimate())
		}
	}
}

// TestRoughL0DecodesV1 is the bounded decode of the dropped field. A v1
// payload embeds the RoughF0 the window followed: the decoder checks it
// — a bad one is refused — and keeps nothing of it, so the result
// re-encodes as the v2 payload, and what a decode allocates stays within
// a few bytes per input byte however many copies the dropped estimator
// claims.
func TestRoughL0DecodesV1(t *testing.T) {
	s := newSolo(rand.New(rand.NewSource(3)), 1<<12, true, 8)
	for i := uint64(0); i < 2000; i++ {
		s.Update(i, 1)
	}
	v2 := wiretest.MustMarshal(t, s.RoughL0)
	if got := wiretest.MustMarshal(t, wiretest.Restore[RoughL0](t, wiretest.MustMarshal(t, s))); !bytes.Equal(got, v2) {
		t.Fatal("a v1 payload re-encodes to other bytes than its v2 twin")
	}
	decode := func(rough []byte) error {
		blob := spliceV1(v2, s.RoughL0, rough)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := new(RoughL0).UnmarshalBinary(blob)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(blob))+16<<10 {
			t.Fatalf("decoding a %d-byte v1 payload allocated %d bytes", len(blob), alloc)
		}
		return err
	}
	big := wiretest.MustMarshal(t, NewRoughF0(rand.New(rand.NewSource(4)), 4096))
	if err := decode(big); err != nil {
		t.Fatalf("an honest 4096-copy estimator refused: %v", err)
	}
	// The copy count sits after magic, version, best and safety.
	claim := func(n uint32) []byte {
		forged := slices.Clone(big)
		binary.LittleEndian.PutUint32(forged[19:], n)
		return forged
	}
	for _, n := range []uint32{1 << 31, uint32(len(big)-23) / 4, uint32(len(big)-23)/4 + 1} {
		if err := decode(claim(n)); err == nil {
			t.Fatalf("a dropped estimator claiming %d copies decoded", n)
		}
	}
	high := NewRoughF0(rand.New(rand.NewSource(4)), 16)
	high.bitmaps[3] = 1 << 62
	if err := decode(wiretest.MustMarshal(t, high)); err == nil {
		t.Fatal("a dropped estimator with a level above 60 decoded")
	}
}

// TestRoughGaugeSetPerSync: repro_l0_rough_estimate reads the R_t the
// last window sync stood at, is written by syncs only — an update that
// moves nothing leaves a planted value alone — and takes no space under
// -tags noobs.
func TestRoughGaugeSetPerSync(t *testing.T) {
	if !obs.Enabled {
		if unsafe.Sizeof(rowStats.Rough) != 0 {
			t.Fatalf("the gauge takes %d bytes with observability compiled out", unsafe.Sizeof(rowStats.Rough))
		}
		t.Skip("gauge compiled out")
	}
	const n = 1 << 30
	e := NewEstimator(rand.New(rand.NewSource(19)), Params{N: n, Eps: 0.25, Windowed: true, Window: 3})
	us := burstStream(rand.New(rand.NewSource(20)), n, 6, 40, 0)
	core.UpdateBatch(e.UpdateColumns, us)
	if got := rowStats.Rough.Load(); got != e.rough.Estimate() || got == 0 {
		t.Fatalf("gauge reads %d, R_t is %d", got, e.rough.Estimate())
	}
	rowStats.Rough.Set(-5)
	e.Update(us[0].Index, 1)
	core.UpdateBatch(e.UpdateColumns, us[:100])
	if got := rowStats.Rough.Load(); got != -5 {
		t.Fatalf("updates that moved nothing set the gauge to %d", got)
	}
}

// TestLemma20BandOverSeeds is the one distribution the shared R_t moves:
// Lemma 20's constant-factor estimate, whose levels now follow the rows'
// R_t instead of their own. Over a fixed list of α-property sensor
// streams (α 2 and 8, 32 seeds each) the seeds on which final.Estimate()
// leaves [L0, 110·L0] are counted for the parent's final and for the
// change's; the two counts must not be separable at false-alarm rate
// 1e-3.
func TestLemma20BandOverSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("a sweep of 64 streams")
	}
	const n = 1 << 30
	var changed, parent int
	for _, alpha := range []float64{2, 8} {
		p := Params{N: n, Eps: 0.1, Windowed: true, Window: RecommendedWindow(alpha, 0.1)}
		// outside feeds seed's stream to the change's estimator, or to the
		// parent's final alone, and reports final's estimate off its band.
		outside := func(ofParent bool) func(int64) bool {
			return func(seed int64) bool {
				s := gen.SensorOccupancy(gen.Config{N: n, Items: 12000, Alpha: alpha, Seed: seed})
				var final func() int64
				if ofParent {
					r := newParentL0(seed, p).final
					core.UpdateBatch(func(b *core.Batch) { r.UpdateColumn(b, b.Col64(2*b.Len())) }, s.Updates)
					final = r.Estimate
				} else {
					e := NewEstimator(rand.New(rand.NewSource(seed)), p)
					core.UpdateBatch(e.UpdateColumns, s.Updates)
					final = e.final.Estimate
				}
				l0 := s.Materialize().L0()
				return final() < l0 || final() > 110*l0
			}
		}
		seeds := sweep.Seeds(32)
		c, pa := sweep.Sweep(seeds, outside(false)), sweep.Sweep(seeds, outside(true))
		t.Logf("alpha %v: outside [L0, 110 L0] on %d of %d seeds with the shared R_t %v, %d with the parent's own %v", alpha, len(c), len(seeds), c, len(pa), pa)
		changed, parent = changed+len(c), parent+len(pa)
	}
	if sweep.Separable(changed, parent, 1e-3) {
		t.Fatalf("final leaves its band on %d of 64 seeds with the shared R_t, %d with its own: separable at 1e-3", changed, parent)
	}
}
