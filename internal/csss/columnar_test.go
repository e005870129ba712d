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

// feedBoth ingests us into a per update and into b in batches of
// cycling sizes, holding the two to the same state after every batch
// and to the same next rng draw at the end.
func feedBoth(t *testing.T, a, b *Sketch, us []stream.Update) {
	t.Helper()
	sizes := []int{1, 3, 17, 129, 511, 1024, 4096}
	for off, k := 0, 0; off < len(us); k++ {
		end := off + sizes[k%len(sizes)]
		if end > len(us) {
			end = len(us)
		}
		for _, u := range us[off:end] {
			a.Update(u.Index, u.Delta)
		}
		core.UpdateBatch(b.UpdateColumns, us[off:end])
		requireSameState(t, a, b)
		off = end
	}
	if a.rng.Uint64() != b.rng.Uint64() {
		t.Fatal("rng streams diverged: the columnar path did not make the scalar path's draws")
	}
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
// route. The p=e cases force e halvings and park the sketch a few
// thousand units short of the next boundary, so each exponent sees long
// thinned runs on either side of one halving: exponents 1..12 cover the
// packed-word branch (p*rows <= 64) and the per-row-draw branch at both
// depths.
func TestUpdateColumnsMatchesScalar(t *testing.T) {
	pair := func(p Params) (a, b *Sketch) {
		return New(rand.New(rand.NewSource(31)), p), New(rand.New(rand.NewSource(31)), p)
	}
	for _, fb := range []uint{0, 6} {
		for _, rows := range []int{5, 7, 33} {
			t.Run(fmt.Sprintf("walk/rows=%d/fb=%d", rows, fb), func(t *testing.T) {
				a, b := pair(Params{Rows: rows, K: 8, S: 16, FixedPointBits: fb})
				feedBoth(t, a, b, mixedDeltas(rand.New(rand.NewSource(21)), 60000))
				if b.SampleExponent() < 12 {
					t.Fatalf("walk ended at exponent %d, want >= 12", b.SampleExponent())
				}
			})
		}
		for _, rows := range []int{5, 7} {
			for e := 1; e <= 12; e++ {
				t.Run(fmt.Sprintf("p=%d/rows=%d/fb=%d", e, rows, fb), func(t *testing.T) {
					a, b := pair(Params{Rows: rows, K: 8, S: 64, FixedPointBits: fb})
					for _, sk := range []*Sketch{a, b} {
						for sk.p < e {
							sk.halveOnce()
						}
						sk.t = max(0, sk.nextHalf-1-4000)
					}
					feedBoth(t, a, b, mixedDeltas(rand.New(rand.NewSource(int64(e))), 6000))
					if b.SampleExponent() <= e {
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
		core.UpdateBatch(sk.UpdateColumns, us[off:off+1000])
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
		UnitsRate1:      after.UnitsRate1 - before.UnitsRate1,
		UnitsThinned:    after.UnitsThinned - before.UnitsThinned,
		UnitsScalar:     after.UnitsScalar - before.UnitsScalar,
		SurvivorsHashed: after.SurvivorsHashed - before.SurvivorsHashed,
		Halvings:        after.Halvings - before.Halvings,
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
	// Thinning must drop work: every rate-1 unit is hashed, and past
	// p = 3 most thinned updates are sampled out of all seven rows.
	if got.SurvivorsHashed < 2*S || got.SurvivorsHashed >= n-halved {
		t.Errorf("apply hashed %d survivors of %d batched updates", got.SurvivorsHashed, n-halved)
	}
}

// FuzzUpdateColumnsDifferential hands the fuzzer the sample budget, the
// depth, the fixed-point resolution, the deltas and the batch cuts, and
// holds UpdateColumns to the scalar path bit for bit — state and next
// rng draw. Each update is three bytes: key, delta code, and a shift
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
		a := New(rand.New(rand.NewSource(5)), p)
		b := New(rand.New(rand.NewSource(5)), p)
		batch := core.GetBatch()
		defer core.PutBatch(batch)
		flush := func() {
			b.UpdateColumns(batch)
			batch.Reset()
			requireSameState(t, a, b)
		}
		for i := 0; i+2 < len(data); i += 3 {
			d := int64(int8(data[i+1])) << (data[i+2] % 3 * 3)
			if data[i+1] == 128 {
				d = math.MinInt64
			}
			a.Update(uint64(data[i]), d)
			batch.Append(uint64(data[i]), d)
			if data[i+2]&0x80 != 0 {
				flush()
			}
		}
		flush()
		if a.rng.Uint64() != b.rng.Uint64() {
			t.Fatal("rng streams diverged")
		}
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
		p := Params{Rows: 5, K: 8, S: s, FixedPointBits: 3}
		a := New(rand.New(rand.NewSource(51)), p)
		b := New(rand.New(rand.NewSource(51)), p)
		for _, u := range us {
			a.Update(u.Index, u.Delta)
		}
		core.UpdateBatch(b.UpdateColumns, us)
		requireSameState(t, a, b)
		if a.Position() != 3+5+1<<40+2+2*maxCount+1+1 {
			t.Fatalf("S=%d: position %d", s, a.Position())
		}
		if a.rng.Uint64() != b.rng.Uint64() {
			t.Fatalf("S=%d: rng streams diverged", s)
		}
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
	a := New(rand.New(rand.NewSource(2)), p)
	b := New(rand.New(rand.NewSource(2)), p)
	for _, u := range us {
		a.Update(u.Index, u.Delta)
	}
	core.UpdateBatch(b.UpdateColumns, us)
	for i := uint64(0); i < 256; i++ {
		if qa, qb := a.Query(i), b.Query(i); qa != qb {
			t.Fatalf("Query(%d): scalar %v, columnar %v", i, qa, qb)
		}
	}
	if a.rng.Uint64() != b.rng.Uint64() {
		t.Fatal("rate-1 columnar path consumed rng; scalar path does not")
	}
}
