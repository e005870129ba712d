package csss

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/topk"
)

// mixedDeltas draws a delta column that exercises every thin branch:
// zeros (dropped without a draw), unit updates of both signs (the
// packed-word or per-row Dyadic coin), small and large multi-unit
// updates (per-row Binomial counts, boundary crossings spanning
// several halvings) and MinInt64 (a scalar-path no-op).
func mixedDeltas(rng *rand.Rand, n int) []stream.Update {
	us := make([]stream.Update, n)
	for i := range us {
		var d int64
		switch v := rng.Intn(1000); {
		case v < 100:
			d = 0
		case v < 650:
			d = 1
		case v < 850:
			d = -1
		case v < 997:
			d = int64(2 + rng.Intn(40))
			if v&1 == 0 {
				d = -d
			}
		case v < 999:
			d = int64(3000 + rng.Intn(9000))
		default:
			d = math.MinInt64
		}
		us[i] = stream.Update{Index: uint64(rng.Intn(512)), Delta: d}
	}
	return us
}

// requireSameState fails unless the columnar sketch is the scalar
// sketch bit for bit: clock, encoded table and space accounting.
func requireSameState(t *testing.T, scalar, columnar *Sketch) {
	t.Helper()
	if scalar.Position() != columnar.Position() || scalar.SampleExponent() != columnar.SampleExponent() {
		t.Fatalf("clock: scalar (t=%d, p=%d), columnar (t=%d, p=%d)",
			scalar.Position(), scalar.SampleExponent(), columnar.Position(), columnar.SampleExponent())
	}
	if sa, sb := scalar.SpaceBits(), columnar.SpaceBits(); sa != sb {
		t.Fatalf("SpaceBits: scalar %d, columnar %d", sa, sb)
	}
	wa, err := scalar.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := columnar.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa, wb) {
		t.Fatalf("encoded state differs at t=%d, p=%d", scalar.Position(), scalar.SampleExponent())
	}
}

// lockstep holds the batch path to the per-item path: same-seeded
// sketches a (fed by Update) and b (fed by UpdateColumns), and beside
// each the candidate tracker a heavy-hitters structure keeps — a's
// offered every distinct key of the batch, in first-occurrence order,
// with the estimate a hash pass of its own gives (QueryColumns), b's
// from the bucket and sign columns UpdateColumns returned.
type lockstep struct {
	a, b       *Sketch
	trkA, trkB *topk.Tracker
	refresh    topk.Refresher[float64]
	scratch    core.Batch // a's QueryColumns hashes into its own columns
}

func newLockstep(seed int64, p Params) *lockstep {
	return &lockstep{
		a: New(rand.New(rand.NewSource(seed)), p), b: New(rand.New(rand.NewSource(seed)), p),
		trkA: topk.New(8), trkB: topk.New(8), // 16 slots: the byte-sized key spaces here overflow it
	}
}

// feed ingests one batch into both sides and compares everything a
// batch can leave behind: encoded state, the estimates the refresh
// read off the hashed columns, and the trackers.
func (l *lockstep) feed(t *testing.T, batch *core.Batch) {
	t.Helper()
	var distinct []uint64
	seen := make(map[uint64]bool)
	for j, i := range batch.Idx {
		l.a.Update(i, batch.Delta[j])
		if !seen[i] {
			seen[i] = true
			distinct = append(distinct, i)
		}
	}
	want := make([]float64, len(distinct))
	l.a.QueryColumns(&l.scratch, distinct, want)
	for j, i := range distinct {
		l.trkA.Offer(i, want[j])
	}
	cols, signs := l.b.UpdateColumns(batch)
	est := make([]float64, len(distinct))
	l.b.EstimateHashed(cols, signs, est)
	for j, i := range distinct {
		if est[j] != want[j] || est[j] != l.a.Query(i) {
			t.Fatalf("estimate of key %d off the hashed columns = %v, QueryColumns = %v, Query = %v", i, est[j], want[j], l.a.Query(i))
		}
	}
	l.refresh.OfferHashed(l.trkB, batch, cols, signs, l.b)
	requireSameState(t, l.a, l.b)
	ta, _ := l.trkA.MarshalBinary()
	tb, _ := l.trkB.MarshalBinary()
	if !bytes.Equal(ta, tb) {
		t.Fatalf("candidate sets differ: per-item %v, planned %v", l.trkA.Candidates(), l.trkB.Candidates())
	}
}

// feedUpdates is feed over a fresh pooled batch.
func (l *lockstep) feedUpdates(t *testing.T, us []stream.Update) {
	t.Helper()
	batch := core.GetBatch()
	batch.LoadUpdates(us)
	l.feed(t, batch)
	core.PutBatch(batch)
}

// requireSameDraw ends a comparison: both rngs must be at the same
// point of the same stream.
func (l *lockstep) requireSameDraw(t *testing.T) {
	t.Helper()
	if l.a.rng.Uint64() != l.b.rng.Uint64() {
		t.Fatal("rng streams diverged: the columnar path did not make the scalar path's draws")
	}
}

// feedBoth ingests us per update and in batches of cycling sizes,
// holding the two sides together after every batch and to the same
// next rng draw at the end.
func feedBoth(t *testing.T, l *lockstep, us []stream.Update) {
	t.Helper()
	sizes := []int{1, 3, 17, 129, 511, 1024, 4096}
	for off, k := 0, 0; off < len(us); k++ {
		end := min(off+sizes[k%len(sizes)], len(us))
		l.feedUpdates(t, us[off:end])
		off = end
	}
	l.requireSameDraw(t)
}

// TestUpdateColumnsMatchesScalar: the columnar batch path must be
// bit-identical to per-update ingestion in EVERY regime. The thin stage
// makes the scalar path's rng draws in the scalar path's order, so two
// same-seeded sketches stay in lockstep across halvings — checked after
// every batch on the encoded state, and at the end on the rng's next
// draw.
//
// walk starts at p = 0 with S = 16, so early batches straddle several
// halvings each and the exponent climbs past 12 inside one stream; 33
// rows is deeper than a survivor's row mask and pins the per-item
// apply under a planned refresh. The p=e cases force e halvings and park the sketch a few
// thousand units short of the next boundary, so each exponent sees long
// thinned runs on either side of one halving: exponents 1..12 cover the
// packed-word branch (p*rows <= 64) and the per-row-draw branch at both
// depths.
func TestUpdateColumnsMatchesScalar(t *testing.T) {
	for _, fb := range []uint{0, 6} {
		for _, rows := range []int{5, 7, 33} {
			t.Run(fmt.Sprintf("walk/rows=%d/fb=%d", rows, fb), func(t *testing.T) {
				l := newLockstep(31, Params{Rows: rows, K: 8, S: 16, FixedPointBits: fb})
				feedBoth(t, l, mixedDeltas(rand.New(rand.NewSource(21)), 60000))
				if l.b.SampleExponent() < 12 {
					t.Fatalf("walk ended at exponent %d, want >= 12", l.b.SampleExponent())
				}
			})
		}
		for _, rows := range []int{5, 7} {
			for e := 1; e <= 12; e++ {
				t.Run(fmt.Sprintf("p=%d/rows=%d/fb=%d", e, rows, fb), func(t *testing.T) {
					l := newLockstep(31, Params{Rows: rows, K: 8, S: 64, FixedPointBits: fb})
					for _, sk := range []*Sketch{l.a, l.b} {
						for sk.p < e {
							sk.halveOnce()
						}
						sk.t = max(0, sk.nextHalf-1-4000)
					}
					feedBoth(t, l, mixedDeltas(rand.New(rand.NewSource(int64(e))), 6000))
					if l.b.SampleExponent() <= e {
						t.Fatalf("stream never crossed the boundary out of exponent %d", e)
					}
				})
			}
		}
	}
}

// TestZeroFieldsMatchesPerFieldTest: the all-rows-at-once coin must
// agree with addSampled's field-by-field test for every packed shape
// (width*rows <= 64, up to the row-mask depth), on words with fields
// forced to zero, to one, and to their top bit alone — the carries the
// trick rides on.
func TestZeroFieldsMatchesPerFieldTest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for width := uint(1); width <= 64; width++ {
		for rows := uint(1); rows <= maxMaskRows && width*rows <= 64; rows++ {
			low, top := fieldMasks(width, rows)
			field := uint64(1)<<width - 1
			for trial := 0; trial < 200; trial++ {
				word := rng.Uint64()
				for r := uint(0); r < rows; r++ {
					switch rng.Intn(4) {
					case 0:
						word &^= field << (r * width)
					case 1:
						word = word&^(field<<(r*width)) | 1<<(r*width)
					case 2:
						word = word&^(field<<(r*width)) | 1<<(r*width+width-1)
					}
				}
				var want uint64
				for r, w := uint(0), word; r < rows; r++ {
					if w&field == 0 {
						want |= 1 << r
					}
					w >>= width
				}
				if got := zeroFields(word, low, top, width, rows); got != want {
					t.Fatalf("width=%d rows=%d word=%#x: hits %#b, want %#b", width, rows, word, got, want)
				}
			}
		}
	}
}

// TestRegimeCountersRoutes: the regime counters must show where a
// batch's unit mass went. On a unit stream the scalar route takes
// exactly the updates that land on a halving boundary — one per
// halving — so a batch path that never dispatches (everything falling
// to the per-item loop) is visible as scalar growing with the stream.
func TestRegimeCountersRoutes(t *testing.T) {
	const S, n = 64, 5000
	us := make([]stream.Update, n)
	for i := range us {
		us[i] = stream.Update{Index: uint64(i % 97), Delta: 1 - 2*int64(i%5/4)}
	}
	sk := New(rand.New(rand.NewSource(7)), Params{Rows: 7, K: 8, S: S})
	before := DispatchStats()
	for off := 0; off < n; off += 1000 {
		feedColumns(sk, us[off:off+1000])
	}
	after := DispatchStats()
	if !obs.Enabled {
		if after != (RegimeStats{}) {
			t.Fatalf("noobs build recorded %+v", after)
		}
		return
	}
	// Boundaries S*2^r + 1 at positions 129, 257, ..., 4097: six
	// updates land on one, and everything before the first is rate-1.
	halved := int64(sk.SampleExponent())
	if halved != 6 {
		t.Fatalf("stream ended at exponent %d, want 6", halved)
	}
	got := RegimeStats{
		UnitsRate1:       after.UnitsRate1 - before.UnitsRate1,
		UnitsThinned:     after.UnitsThinned - before.UnitsThinned,
		UnitsScalar:      after.UnitsScalar - before.UnitsScalar,
		SurvivorsApplied: after.SurvivorsApplied - before.SurvivorsApplied,
		BatchKeys:        after.BatchKeys - before.BatchKeys,
		KeysHashed:       after.KeysHashed - before.KeysHashed,
		Halvings:         after.Halvings - before.Halvings,
		SampleExponent:   after.SampleExponent,
	}
	if got.UnitsScalar != halved || got.Halvings != halved {
		t.Errorf("scalar route took %d units over %d halvings, want %d and %d", got.UnitsScalar, got.Halvings, halved, halved)
	}
	if got.UnitsRate1 != 2*S {
		t.Errorf("rate-1 route took %d units, want %d", got.UnitsRate1, 2*S)
	}
	if got.UnitsThinned != n-2*S-halved {
		t.Errorf("thinned route took %d units, want %d", got.UnitsThinned, n-2*S-halved)
	}
	// Thinning must drop work: every rate-1 unit is applied, and past
	// p = 3 most thinned updates are sampled out of all seven rows.
	if got.SurvivorsApplied < 2*S || got.SurvivorsApplied >= n-halved {
		t.Errorf("apply added %d survivors of %d batched updates", got.SurvivorsApplied, n-halved)
	}
	// Five batches of 1000 updates over 97 keys: each batch hashes its
	// 97 distinct keys once, whatever the regime.
	if got.BatchKeys != n || got.KeysHashed != 5*97 {
		t.Errorf("UpdateColumns was handed %d updates and hashed %d keys, want %d and %d", got.BatchKeys, got.KeysHashed, n, 5*97)
	}
	if got.SampleExponent != halved {
		t.Errorf("sample-exponent gauge reads %d after %d halvings", got.SampleExponent, halved)
	}
	// Construction, restore and merge set the gauge too.
	New(rand.New(rand.NewSource(8)), Params{Rows: 7, K: 8, S: S})
	if p := DispatchStats().SampleExponent; p != 0 {
		t.Errorf("gauge reads %d after a construction, want 0", p)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Sketch
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if p := DispatchStats().SampleExponent; p != halved {
		t.Errorf("gauge reads %d after restoring a sketch at exponent %d", p, halved)
	}
	fresh := New(rand.New(rand.NewSource(7)), Params{Rows: 7, K: 8, S: S})
	if err := fresh.Merge(&restored); err != nil {
		t.Fatal(err)
	}
	if p := DispatchStats().SampleExponent; p != int64(fresh.SampleExponent()) || p < halved {
		t.Errorf("gauge reads %d after a merge that left the sketch at exponent %d", p, fresh.SampleExponent())
	}
}

// FuzzUpdateColumnsDifferential hands the fuzzer the sample budget, the
// depth, the fixed-point resolution, the deltas and the batch cuts, and
// holds UpdateColumns to the scalar path bit for bit — state, refresh
// estimates, candidate set and next rng draw. Keys are one byte, so
// batches repeat them densely. Each update is three bytes: key, delta code, and a shift
// that scales the delta (large magnitudes cross several halvings in
// one update); a set top bit in the shift byte cuts the batch there.
func FuzzUpdateColumnsDifferential(f *testing.F) {
	f.Add(uint16(4), uint8(7), uint8(0), []byte{1, 1, 0, 2, 255, 0, 3, 1, 128, 1, 7, 1, 9, 0, 0, 4, 128, 0})
	f.Add(uint16(1), uint8(5), uint8(6), bytes.Repeat([]byte{7, 1, 0}, 150))             // unit stream, S = 2: p climbs past 5
	f.Add(uint16(0), uint8(11), uint8(0), bytes.Repeat([]byte{5, 1, 0, 6, 255, 0}, 80))  // 12 rows leave the packed word at p = 6
	f.Add(uint16(2), uint8(40), uint8(0), bytes.Repeat([]byte{9, 3, 2}, 50))             // deeper than the row mask
	f.Add(uint16(64), uint8(7), uint8(3), bytes.Repeat([]byte{1, 90, 2, 2, 128, 0}, 40)) // big deltas, MinInt64
	f.Fuzz(func(t *testing.T, budget uint16, depth, fb uint8, data []byte) {
		p := Params{Rows: int(depth%40) + 1, K: 2, S: int64(budget) + 1, FixedPointBits: uint(fb % 8)}
		l := newLockstep(5, p)
		batch := core.GetBatch()
		defer core.PutBatch(batch)
		flush := func() {
			l.feed(t, batch)
			batch.Reset()
		}
		for i := 0; i+2 < len(data); i += 3 {
			d := int64(int8(data[i+1])) << (data[i+2] % 3 * 3)
			if data[i+1] == 128 {
				d = math.MinInt64
			}
			batch.Append(uint64(data[i]), d)
			if data[i+2]&0x80 != 0 {
				flush()
			}
		}
		flush()
		l.requireSameDraw(t)
	})
}

// TestUpdateColumnsExtremeDeltas: MinInt64 (a scalar-path no-op: its
// magnitude cannot be negated), a delta wider than a survivor's count
// field, and one just inside it must not corrupt the position counter
// or halving schedule via overflow in the columnar prefix scan — state
// stays identical to the scalar path. (Cumulative unit mass near 2^63
// overflows the halving schedule on BOTH paths and is out of model — a
// stream that long cannot exist — so the large deltas here stay within
// the schedule's range.)
func TestUpdateColumnsExtremeDeltas(t *testing.T) {
	us := []stream.Update{
		{Index: 1, Delta: 3},
		{Index: 2, Delta: math.MinInt64},
		{Index: 3, Delta: 5},
		{Index: 4, Delta: 1 << 40},
		{Index: 5, Delta: -2},
		{Index: 6, Delta: math.MinInt64},
		{Index: 7, Delta: -maxCount},
		{Index: 8, Delta: maxCount + 1},
		{Index: 9, Delta: 1},
	}
	for _, s := range []int64{64, 1 << 50} { // sampled throughout, and rate-1 throughout
		l := newLockstep(51, Params{Rows: 5, K: 8, S: s, FixedPointBits: 3})
		l.feedUpdates(t, us)
		if l.a.Position() != 3+5+1<<40+2+2*maxCount+1+1 {
			t.Fatalf("S=%d: position %d", s, l.a.Position())
		}
		l.requireSameDraw(t)
	}
}

// TestUpdateColumnsRateOneExact: entirely inside the rate-1 regime the
// columnar path is the pure row-major apply; state must equal the
// scalar path's and the rng must be untouched (identical next draw).
func TestUpdateColumnsRateOneExact(t *testing.T) {
	p := Params{Rows: 7, K: 16, S: 1 << 30} // never halves
	us := make([]stream.Update, 0, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		us = append(us, stream.Update{Index: uint64(rng.Intn(256)), Delta: int64(rng.Intn(9) - 4)})
	}
	l := newLockstep(2, p)
	l.feedUpdates(t, us)
	for i := uint64(0); i < 256; i++ {
		if qa, qb := l.a.Query(i), l.b.Query(i); qa != qb {
			t.Fatalf("Query(%d): scalar %v, columnar %v", i, qa, qb)
		}
	}
	l.requireSameDraw(t) // the rate-1 path draws nothing; nor does the scalar path
}

// TestUpdateColumnsPlannedCases: directed batches for what the distinct
// plan added to the batch path — every update reaches the table through
// its key's ordinal, a rate-1 run sums a key's mass before it is
// applied, and one plan serves a whole batch whatever happens to the
// sketch inside it. Each case runs in the rate-1 regime, parked just
// short of the first halving, and well into the sampled regime.
func TestUpdateColumnsPlannedCases(t *testing.T) {
	const wide = maxCount + 1 // too wide for a survivor: the scalar loop takes it, cutting the run
	rep := func(n int, u ...stream.Update) []stream.Update {
		var out []stream.Update
		for ; n > 0; n-- {
			out = append(out, u...)
		}
		return out
	}
	distinct := make([]stream.Update, 300)
	for i := range distinct {
		distinct[i] = stream.Update{Index: uint64(i) << 20, Delta: int64(i%5 - 2)}
	}
	cases := []struct {
		name string
		us   []stream.Update
	}{
		// Key 7 sits on both sides of every boundary the batch crosses,
		// and is the update that crosses it.
		{"same key across a halving", rep(200, stream.Update{Index: 7, Delta: 1}, stream.Update{Index: 9, Delta: -1}, stream.Update{Index: 7, Delta: 3})},
		// One key's mass inside one run passes 2^32 on the insert side
		// alone, then on both sides at once.
		{"coalesced mass past 2^32", rep(5, stream.Update{Index: 3, Delta: maxCount})},
		{"coalesced mass past 2^32, both signs", rep(5, stream.Update{Index: 3, Delta: maxCount}, stream.Update{Index: 3, Delta: -maxCount}, stream.Update{Index: 4, Delta: 1})},
		{"all distinct", distinct},
		{"all identical", rep(300, stream.Update{Index: 1 << 40, Delta: 1})},
		{"zero and MinInt64 beside duplicates", rep(40, stream.Update{Index: 5, Delta: 0}, stream.Update{Index: 5, Delta: 2}, stream.Update{Index: 5, Delta: math.MinInt64}, stream.Update{Index: 6, Delta: 0}, stream.Update{Index: 5, Delta: -1})},
		{"length 1", []stream.Update{{Index: 11, Delta: -4}}},
		// Wide updates cut the batch into runs shorter than its key
		// column: at rate 1 those apply update by update, not key by key.
		{"runs shorter than the key column", rep(6, stream.Update{Index: 1, Delta: 1}, stream.Update{Index: 2, Delta: -2}, stream.Update{Index: 3, Delta: wide}, stream.Update{Index: 4, Delta: 1}, stream.Update{Index: 1, Delta: 5}, stream.Update{Index: 5, Delta: -wide})},
	}
	regimes := []struct {
		name   string
		budget int64
		halve  int
		gap    int64 // park t this far short of the next boundary; 0 leaves t alone
	}{
		{"rate1", 1 << 50, 0, 0},
		{"rate1 to sampled", 1 << 36, 0, 150},
		{"sampled", 1 << 36, 3, 150},
		{"sampled deep", 64, 9, 0},
	}
	for _, rows := range []int{5, 7, 33} { // 33: deeper than the row mask, scalar apply under a planned refresh
		for _, rg := range regimes {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("rows=%d/%s/%s", rows, rg.name, tc.name), func(t *testing.T) {
					l := newLockstep(61, Params{Rows: rows, K: 4, S: rg.budget, FixedPointBits: 2})
					for _, sk := range []*Sketch{l.a, l.b} {
						for sk.p < rg.halve {
							sk.halveOnce()
						}
						if rg.gap > 0 {
							sk.t = sk.nextHalf - 1 - rg.gap
						}
					}
					l.feedUpdates(t, tc.us)
					l.requireSameDraw(t)
				})
			}
		}
	}
}

// TestUpdateColumnsServesNoStalePlan: one batch object fed again after
// Append (the plan computed for the shorter batch must not be served)
// and after Reset to the same length with other keys (nor must one that
// merely fits).
func TestUpdateColumnsServesNoStalePlan(t *testing.T) {
	for _, budget := range []int64{1 << 40, 32} {
		l := newLockstep(71, Params{Rows: 7, K: 4, S: budget})
		batch := core.GetBatch()
		for j := 0; j < 50; j++ {
			batch.Append(uint64(j%6), 1)
		}
		l.feed(t, batch)
		batch.Append(100, 2) // grows the key column
		batch.Append(3, -1)  // and the update column alone
		l.feed(t, batch)
		n := batch.Len()
		batch.Reset()
		for j := 0; j < n; j++ {
			batch.Append(uint64(200+j%9), int64(1-j%3))
		}
		l.feed(t, batch)
		core.PutBatch(batch)
		l.requireSameDraw(t)
	}
}

// TestCloneAndRestoreShareNoBatchScratch: a sketch, its Clone and its
// restored copy ingest alternately — through one pooled batch each and
// then through the SAME batch — and each must end where a sketch fed
// the same updates per item ends. Nothing of one sketch's batch path
// (hashed columns, survivors, summed mass) may live where another's
// call can reach it.
func TestCloneAndRestoreShareNoBatchScratch(t *testing.T) {
	p := Params{Rows: 7, K: 8, S: 128}
	src := New(rand.New(rand.NewSource(81)), p)
	us := mixedDeltas(rand.New(rand.NewSource(82)), 6000)
	feedColumns(src, us[:1000])
	clone := src.Clone()
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Sketch)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// Each sketch draws from its own rng from here on, so each gets its
	// own per-item twin, made the same way at the same moment.
	twin := func(sk *Sketch) *Sketch {
		b, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		tw := new(Sketch)
		if err := tw.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		b2, _ := tw.MarshalBinary()
		if err := sk.UnmarshalBinary(b2); err != nil { // both now seeded by the same bytes
			t.Fatal(err)
		}
		return tw
	}
	sketches := []*Sketch{src, clone, restored}
	twins := []*Sketch{twin(src), twin(clone), twin(restored)}
	shared := core.GetBatch()
	defer core.PutBatch(shared)
	for off := 1000; off < len(us); off += 500 {
		chunk := us[off : off+500]
		for k, sk := range sketches {
			for _, u := range chunk[k*100 : k*100+300] {
				twins[k].Update(u.Index, u.Delta)
			}
			if off/500%2 == 0 {
				feedColumns(sk, chunk[k*100:k*100+300])
			} else {
				shared.LoadUpdates(chunk[k*100 : k*100+300])
				sk.UpdateColumns(shared)
			}
		}
		for k := range sketches {
			requireSameState(t, twins[k], sketches[k])
		}
	}
}
