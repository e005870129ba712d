package l0

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/sweep"
	"repro/internal/wire/wiretest"
)

// soloL0 is a RoughL0 standing alone with an R_t of its own, fed first:
// the parent's RoughL0, whose constructor drew that RoughF0's 16 hashes
// right after the level hash and seed — so the same rng builds the same
// instance. The baseline has no rough and stands at 0.
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

// restoreInto fills fresh, a soloL0 built as s was, from s's two
// states.
func (s *soloL0) restoreInto(t testing.TB, fresh *soloL0) *soloL0 {
	wiretest.Restore(t, fresh.RoughL0, wiretest.MustMarshal(t, s.RoughL0))
	if s.rough != nil {
		wiretest.Restore(t, fresh.rough, wiretest.MustMarshal(t, s.rough))
	}
	return fresh
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
				r := newParentL0(43, p)
				a.e = wiretest.Restore(t, NewEstimator(rand.New(rand.NewSource(43)), p), wiretest.MustMarshal(t, a.e))
				r.e = wiretest.Restore(t, r.e, wiretest.MustMarshal(t, a.r.e))
				r.final = a.r.final.restoreInto(t, r.final)
				a.r = r
				ops["round trip"]++
			case 4: // the parent's state: its final's levels, re-synced at the shared R_t
				r := newParentL0(43, p)
				a.e = wiretest.Restore(t, NewEstimator(rand.New(rand.NewSource(43)), p), wiretest.MustMarshal(t, a.r.parent()))
				r.e = wiretest.Restore(t, r.e, wiretest.MustMarshal(t, a.r.e))
				wiretest.Restore(t, r.e.final, wiretest.MustMarshal(t, a.r.final.RoughL0))
				r.final = a.r.final.restoreInto(t, r.final)
				a.r = r
				ops["parent's state"]++
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
// commit: its state after a fixed stream hashes to the digest the
// parent's own Estimator's state recorded, windowed and not.
func TestParentReferenceIsTheParent(t *testing.T) {
	const n = 1 << 30
	golden := map[bool]string{
		true:  "3c07ee3a61602fad1ad8b9a3d9292011387731b3f885689d2caa4c42cae9c9d7",
		false: "088ee5ec5ad3d823fc68685ec9972afbc3e9c55e7b71c56317315d8ce2d1fdc3",
	}
	for _, windowed := range []bool{true, false} {
		r := newParentL0(41, Params{N: n, Eps: 0.25, Windowed: windowed, Window: 3})
		for _, u := range burstStream(rand.New(rand.NewSource(3)), n, 8, 40, 200) {
			r.update(u.Index, u.Delta)
		}
		sum := sha256.Sum256(wiretest.MustMarshal(t, r.parent()))
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

// TestRoughGaugeSetPerSync: repro_l0_rough_estimate reads the R_t the
// last window sync stood at, is written by syncs only — an update that
// moves nothing leaves a planted value alone.
func TestRoughGaugeSetPerSync(t *testing.T) {
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
