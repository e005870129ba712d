package l0

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
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

// TestEstimatorMergeBitForBitUnwindowed: the Figure 6 variant keeps
// every row alive for the whole stream and all its counters are modular
// sums, so merging same-seed shards must reproduce the single-stream
// state exactly — bins, single row, and estimate.
func TestEstimatorMergeBitForBitUnwindowed(t *testing.T) {
	s := gen.SensorOccupancy(gen.Config{N: 1 << 30, Items: 15000, Alpha: 4, Seed: 59})
	p := Params{N: 1 << 30, Eps: 0.1}
	const seed = 61
	whole := NewEstimator(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(whole.UpdateColumns, s.Updates)

	parts := splitByIndex(s, 3)
	merged := NewEstimator(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	for _, pt := range parts[1:] {
		sh := NewEstimator(rand.New(rand.NewSource(seed)), p)
		core.UpdateBatch(sh.UpdateColumns, pt)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.LiveRows() != whole.LiveRows() {
		t.Fatalf("row count: merged %d, single-stream %d", merged.LiveRows(), whole.LiveRows())
	}
	for j := 0; j <= whole.maxRow; j++ {
		bins, mbins := whole.rows.At(j), merged.rows.At(j)
		if (mbins == nil) != (bins == nil) {
			t.Fatalf("row %d: merged live %v, single-stream live %v", j, mbins != nil, bins != nil)
		}
		if bins == nil {
			continue
		}
		for b := range *bins {
			if (*mbins)[b] != (*bins)[b] {
				t.Fatalf("row %d bin %d: merged %d, single-stream %d", j, b, (*mbins)[b], (*bins)[b])
			}
		}
	}
	for b := range whole.singleRow {
		if merged.singleRow[b] != whole.singleRow[b] {
			t.Fatalf("single row bin %d: merged %d, single-stream %d", b, merged.singleRow[b], whole.singleRow[b])
		}
	}
	if me, we := merged.Estimate(), whole.Estimate(); me != we {
		t.Fatalf("estimate: merged %v, single-stream %v", me, we)
	}
}

// TestEstimatorMergeWindowed: the Figure 7 window trajectory differs
// per shard, so the merge is approximate — but the merged estimate must
// stay within the structure's accuracy envelope of the truth.
func TestEstimatorMergeWindowed(t *testing.T) {
	s := gen.SensorOccupancy(gen.Config{N: 1 << 30, Items: 20000, Alpha: 4, Seed: 67})
	want := float64(s.Materialize().L0())
	p := Params{N: 1 << 30, Eps: 0.1, Windowed: true, Window: RecommendedWindow(4, 0.1)}
	const seed = 71
	parts := splitByIndex(s, 4)
	merged := NewEstimator(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	for _, pt := range parts[1:] {
		sh := NewEstimator(rand.New(rand.NewSource(seed)), p)
		core.UpdateBatch(sh.UpdateColumns, pt)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if got := merged.Estimate(); math.Abs(got-want) > 0.4*want {
		t.Fatalf("merged windowed estimate %v too far from %v", got, want)
	}
}

// TestEstimatorMergeRejectsMismatches: params mismatches fail. (Whether
// two estimators share a seed is their owner's Config check.)
func TestEstimatorMergeRejectsMismatches(t *testing.T) {
	p := Params{N: 1 << 20, Eps: 0.2}
	a := NewEstimator(rand.New(rand.NewSource(1)), p)
	if err := a.Merge(NewEstimator(rand.New(rand.NewSource(1)), Params{N: 1 << 20, Eps: 0.1})); err == nil {
		t.Fatal("merging different eps should fail")
	}
}

// TestExactSmallMerge: modular counters add, cancellations collapse,
// and the overflow flag propagates.
func TestExactSmallMerge(t *testing.T) {
	const seed = 73
	a := NewExactSmall(rand.New(rand.NewSource(seed)), 10)
	b := NewExactSmall(rand.New(rand.NewSource(seed)), 10)
	a.Update(1, 5)
	a.Update(2, 3)
	b.Update(2, -3) // cancels a's item 2
	b.Update(3, 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if n, ok := a.Count(); !ok || n != 2 {
		t.Fatalf("merged count = (%d,%v), want (2,true)", n, ok)
	}
	// A different promise bound fails.
	if err := a.Merge(NewExactSmall(rand.New(rand.NewSource(seed)), 11)); err == nil {
		t.Fatal("merging different promise bounds should fail")
	}
	// Overflow propagates.
	c := NewExactSmall(rand.New(rand.NewSource(seed)), 10)
	d := NewExactSmall(rand.New(rand.NewSource(seed)), 10)
	for i := uint64(0); i < 8; i++ {
		c.Update(i, 1)
		d.Update(i+100, 1)
	}
	if err := c.Merge(d); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Count(); ok {
		t.Fatal("merged structure holding 16 > 10 live items should report LARGE")
	}
}

// TestRoughF0Merge: bitmaps OR together, so the merged estimate is at
// least each shard's estimate and stays a valid F0 overestimate.
func TestRoughF0Merge(t *testing.T) {
	const seed = 79
	a := NewRoughF0(rand.New(rand.NewSource(seed)), 16)
	b := NewRoughF0(rand.New(rand.NewSource(seed)), 16)
	whole := NewRoughF0(rand.New(rand.NewSource(seed)), 16)
	for i := uint64(0); i < 4000; i++ {
		whole.Update(i)
		if i%2 == 0 {
			a.Update(i)
		} else {
			b.Update(i)
		}
	}
	ea, eb := a.Estimate(), b.Estimate()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() < ea || a.Estimate() < eb {
		t.Fatalf("merged estimate %d below shard estimates (%d, %d)", a.Estimate(), ea, eb)
	}
	if a.Estimate() != whole.Estimate() {
		// Bitmaps OR to exactly the single-stream bitmaps, so estimates
		// must agree bit for bit.
		t.Fatalf("merged estimate %d, single-stream %d", a.Estimate(), whole.Estimate())
	}
}

// TestRoughL0Merge: level structures built lazily by different shards
// still merge (deterministic per-level wiring) and match single-stream.
func TestRoughL0Merge(t *testing.T) {
	const seed = 83
	const n = 1 << 20
	whole := NewRoughL0(rand.New(rand.NewSource(seed)), n)
	a := NewRoughL0(rand.New(rand.NewSource(seed)), n)
	b := NewRoughL0(rand.New(rand.NewSource(seed)), n)
	for i := uint64(0); i < 3000; i++ {
		whole.Update(0, i, 1)
		if i%2 == 0 {
			a.Update(0, i, 1)
		} else {
			b.Update(0, i, 1)
		}
	}
	if err := a.Merge(b, 0); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatalf("merged estimate %d, single-stream %d", a.Estimate(), whole.Estimate())
	}
}
