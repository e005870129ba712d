package csss

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/topk"
	"repro/internal/wire/wiretest"
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
	if l.a.rng.Get().Uint64() != l.b.rng.Get().Uint64() {
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
	// The same stream in batches of 100 coalesces its first, rate-1
	// batch and nothing after (97 keys to 100 updates); in batches of
	// 1000 the rate-1 run and one run each at p = 2, 3, 4 and 5 do. The
	// draws are the same draws, so the unit routes and the survivor
	// count read the same through either apply, and only the sweeps say
	// which one ran.
	twin := New(rand.New(rand.NewSource(7)), Params{Rows: 7, K: 8, S: S})
	for off := 0; off < n; off += 100 {
		feedColumns(twin, us[off:off+100])
	}
	requireSameState(t, sk, twin)
	last := DispatchStats()
	if r1, th, sc, sv := last.UnitsRate1-after.UnitsRate1, last.UnitsThinned-after.UnitsThinned, last.UnitsScalar-after.UnitsScalar, last.SurvivorsApplied-after.SurvivorsApplied; r1 != got.UnitsRate1 || th != got.UnitsThinned || sc != got.UnitsScalar || sv != got.SurvivorsApplied {
		t.Errorf("batches of 100 routed (rate1 %d, thinned %d, scalar %d, survivors %d), batches of 1000 %+v", r1, th, sc, sv, got)
	}
	if k1000, k100 := after.KeySweeps-before.KeySweeps, last.KeySweeps-after.KeySweeps; k1000 != 5 || k100 != 1 {
		t.Errorf("%d key sweeps in batches of 1000 and %d in batches of 100, want 5 and 1", k1000, k100)
	}
	after = last
	// Construction, restore and merge set the gauge too.
	New(rand.New(rand.NewSource(8)), Params{Rows: 7, K: 8, S: S})
	if p := DispatchStats().SampleExponent; p != 0 {
		t.Errorf("gauge reads %d after a construction, want 0", p)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, New(rand.New(rand.NewSource(7)), Params{Rows: 7, K: 8, S: S}), blob)
	if p := DispatchStats().SampleExponent; p != halved {
		t.Errorf("gauge reads %d after restoring a sketch at exponent %d", p, halved)
	}
	fresh := New(rand.New(rand.NewSource(7)), Params{Rows: 7, K: 8, S: S})
	if err := fresh.Merge(restored); err != nil {
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
	// A 4096-update batch on the coalescing side of the rule: 8200 unit
	// updates, a cut, then the batch — at p = 1 under S = 4097 and at
	// p = 3 under S = 1024.
	long := make([]byte, 0, 3*(8200+4096))
	for j := 0; j < 8200+4096; j++ {
		long = append(long, byte(j*37), byte(1-j%4/3*2), 0)
	}
	long[3*8199+2] = 0x81 // cuts the batch; 0x81 % 3 == 0 leaves the delta a unit
	f.Add(uint16(4096), uint8(6), uint8(0), long)
	f.Add(uint16(1023), uint8(6), uint8(0), long)
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

// parked returns a lockstep whose two sketches sit at exponent e, gap
// units short of the next halving boundary: a batch of fewer units is
// one run at rate 2^-e.
func parked(seed int64, p Params, e int, gap int64) *lockstep {
	l := newLockstep(seed, p)
	for _, sk := range []*Sketch{l.a, l.b} {
		for sk.p < e {
			sk.halveOnce()
		}
		sk.t = sk.nextHalf - 1 - gap
	}
	return l
}

// sweeps runs f and returns how many table sweeps each apply made in
// it.
func sweeps(f func()) (perKey, perSurvivor int64) {
	before := DispatchStats()
	f()
	after := DispatchStats()
	return after.KeySweeps - before.KeySweeps, after.SurvivorSweeps - before.SurvivorSweeps
}

// cycle is n unit updates over d keys in turn, every third a deletion.
func cycle(n, d int) []stream.Update {
	us := make([]stream.Update, n)
	for j := range us {
		us[j] = stream.Update{Index: uint64(j%d) << 24, Delta: int64(1 - j%3/2*2)}
	}
	return us
}

// TestUpdateColumnsLaneWrap: one key repeated in ONE run up to and past
// what a 16-bit lane counts, insertions or deletions, so the sweep that
// is cut every laneMax unit updates is what keeps the table right. At
// p = 1 a row keeps half the run: 140 000 repeats put ~70 000 in a lane
// — the length that fails when the cut is removed; the shorter ones pin
// the cut's edges (one sweep at 65 535, two from 65 536).
func TestUpdateColumnsLaneWrap(t *testing.T) {
	for _, e := range []int{1, 3} {
		for _, n := range []int{laneMax, laneMax + 1, 70000, 140000} {
			for _, delta := range []int64{1, -1} {
				l := parked(91, Params{Rows: 7, K: 4, S: 1 << 40}, e, 1<<30)
				us := make([]stream.Update, n)
				for j := range us {
					us[j] = stream.Update{Index: 77, Delta: delta}
				}
				perKey, _ := sweeps(func() { l.feedUpdates(t, us) })
				l.requireSameDraw(t)
				if want := int64((n + laneMax - 1) / laneMax); perKey != want {
					t.Errorf("p=%d n=%d: %d key sweeps, want %d", e, n, perKey, want)
				}
			}
		}
	}
}

// TestUpdateColumnsRuleRoutes: runs one update under and exactly at the
// coalescing rule, p = 1..4, on the same seeds — both applies leave the
// per-item path's state — and the benchmark's two key shapes: a uniform
// batch (all distinct) takes the survivor sweep at every p, a zipf 1.2
// batch the key sweep while the rule says so. The sweep counts are the
// only assertions here an inverted rule fails: which apply runs is
// pacing, not state, and no lockstep comparison can see it.
func TestUpdateColumnsRuleRoutes(t *testing.T) {
	const d = 60
	for e := 1; e <= 4; e++ {
		rule, at := parked(1, Params{Rows: 7, K: 4, S: 1 << 40}, e, 1).b, 1
		for !rule.coalesces(at, d) {
			at++
		}
		for want, n := range []int{at - 1, at} { // 0 key sweeps under the rule, 1 at it
			l := parked(int64(100+e), Params{Rows: 7, K: 4, S: 1 << 40}, e, 1<<30)
			perKey, perSurvivor := sweeps(func() { l.feedUpdates(t, cycle(n, d)) })
			l.requireSameDraw(t)
			if perKey != int64(want) || perSurvivor != int64(1-want) {
				t.Errorf("p=%d n=%d (rule at %d): %d key sweeps and %d survivor sweeps", e, n, at, perKey, perSurvivor)
			}
		}
	}
	for _, skew := range []float64{0, 1.2} {
		for _, e := range []int{1, 2, 4, 8} {
			batch := skewedBatch(int64(e), 4096, skew)
			keys, _ := core.Distinct(batch)
			l := parked(5, Params{Rows: 7, K: 400, S: 1 << 40}, e, 1<<30)
			perKey, perSurvivor := sweeps(func() { l.feed(t, batch) })
			want := int64(0)
			if l.b.coalesces(4096, len(keys)) {
				want = 1
			}
			if skew == 0 && want != 0 || skew != 0 && e <= 2 && want != 1 {
				t.Errorf("skew %v p=%d: rule says coalesce=%d for %d keys", skew, e, want, len(keys))
			}
			if perKey != want || perSurvivor != 1-want {
				t.Errorf("skew %v p=%d: %d key sweeps and %d survivor sweeps, want %d and %d", skew, e, perKey, perSurvivor, want, 1-want)
			}
			core.PutBatch(batch)
		}
	}
}

// TestUpdateColumnsCoalescedCases: directed batches for the thinned
// key sweep, each one run parked at exponent e unless it says otherwise,
// at every lane word boundary (rows 4, 5, 8, 9), at the sampler's and the
// heavy hitters' depths, and at 33 rows, which no batch path takes.
func TestUpdateColumnsCoalescedCases(t *testing.T) {
	mixed := cycle(3000, 40)
	for j := range mixed { // multi-unit updates of the same keys between the unit ones
		if j%7 == 3 {
			mixed[j].Delta *= int64(2 + j%50)
		}
	}
	distinct := cycle(2000, 2000)
	cases := []struct {
		name   string
		us     []stream.Update
		e      int
		gap    int64
		perKey int64 // key sweeps expected of a batchable depth
	}{
		{"all identical", cycle(3000, 1), 2, 1 << 30, 1},
		{"all distinct", distinct, 1, 1 << 30, 0},
		{"unit and multi-unit updates of one key interleaved", mixed, 1, 1 << 30, 1},
		// 150 updates over 100 keys stay under the rule, the boundary
		// update goes to the scalar loop, and the 2849 left coalesce one
		// exponent up — with the first run's plan and lane column.
		{"a run cut by a halving, its halves on different applies", cycle(3000, 100), 1, 150, 1},
		// Both halves coalesce: the second must not see the first's lanes.
		{"a run cut by a halving, both halves coalesced", cycle(6000, 20), 2, 2500, 2},
		{"p*rows past the packed word", cycle(40000, 2), 10, 1 << 30, 1},
	}
	for _, rows := range []int{4, 5, 7, 8, 9, 33} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("rows=%d/%s", rows, tc.name), func(t *testing.T) {
				l := parked(93, Params{Rows: rows, K: 4, S: 1 << 40, FixedPointBits: 2}, tc.e, tc.gap)
				perKey, _ := sweeps(func() { l.feedUpdates(t, tc.us) })
				l.requireSameDraw(t)
				want := tc.perKey
				if rows > maxMaskRows {
					want = 0
				}
				if perKey != want {
					t.Errorf("%d key sweeps, want %d", perKey, want)
				}
			})
		}
	}
}

// TestUpdateColumnsSampledAllocationFree: a warm planned batch of
// skewed keys, coalescing at p = 1 and at p = 3, allocates nothing —
// the lane column is the batch's scratch like the survivors before it.
func TestUpdateColumnsSampledAllocationFree(t *testing.T) {
	batch := skewedBatch(3, 4096, 1.2)
	defer core.PutBatch(batch)
	for _, e := range []int{1, 3} {
		sk := parked(7, Params{Rows: 7, K: 400, S: 1 << 40}, e, 1<<30).b
		keys, _ := core.Distinct(batch)
		if !sk.coalesces(batch.Len(), len(keys)) {
			t.Fatalf("p=%d: %d updates over %d keys do not coalesce", e, batch.Len(), len(keys))
		}
		sk.UpdateColumns(batch)
		if allocs := testing.AllocsPerRun(20, func() { sk.UpdateColumns(batch) }); allocs != 0 {
			t.Errorf("p=%d: %v allocs per warm UpdateColumns, want 0", e, allocs)
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
	clone := src.CloneInto(nil)
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, New(rand.New(rand.NewSource(81)), p), blob)
	// Each sketch draws from its own rng from here on, so each gets its
	// own per-item twin, made the same way at the same moment.
	twin := func(sk *Sketch) *Sketch {
		b, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		tw := wiretest.Restore(t, New(rand.New(rand.NewSource(81)), p), b)
		b2, _ := tw.MarshalBinary()
		wiretest.Restore(t, sk, b2) // both now seeded by the same bytes
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
