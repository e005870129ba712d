package bounded

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/gen"
)

// TestPublicUpdateColumns: the public columnar entry (PlanBatch +
// UpdateColumns) must be interchangeable with Update/UpdateBatch — the
// Sketch-interface contract the engine's shard pipeline relies on.
func TestPublicUpdateColumns(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.4, Seed: 9})
	cfg := Config{N: 1 << 12, Eps: 0.1, Alpha: 4, Seed: 77}

	scalarHH := must(NewHeavyHitters(cfg))
	colHH := must(NewHeavyHitters(cfg))
	scalarSyn := must(NewSyncSketch(cfg, WithCapacity(128)))
	colSyn := must(NewSyncSketch(cfg, WithCapacity(128)))
	scalarL0 := must(NewL0Estimator(cfg))
	colL0 := must(NewL0Estimator(cfg))
	scalarSup := must(NewSupportSampler(cfg, WithK(8)))
	colSup := must(NewSupportSampler(cfg, WithK(8)))

	for _, u := range s.Updates {
		scalarHH.Update(u.Index, u.Delta)
		scalarSyn.Update(u.Index, u.Delta)
		scalarL0.Update(u.Index, u.Delta)
		scalarSup.Update(u.Index, u.Delta)
	}
	for off := 0; off < len(s.Updates); off += 513 {
		end := off + 513
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		b := PlanBatch(s.Updates[off:end])
		colHH.UpdateColumns(b)  // one planned batch fans across
		colSyn.UpdateColumns(b) // several structures (read-only columns)
		colL0.UpdateColumns(b)
		colSup.UpdateColumns(b)
		PutBatch(b)
	}

	// The windowed structures draw no randomness: identical bytes.
	for name, pair := range map[string][2]Sketch{"L0Estimator": {scalarL0, colL0}, "SupportSampler": {scalarSup, colSup}} {
		a, errA := pair[0].MarshalBinary()
		b, errB := pair[1].MarshalBinary()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: columnar state differs from scalar", name)
		}
	}
	if a, b := scalarL0.Estimate(), colL0.Estimate(); a != b {
		t.Fatalf("L0 Estimate: scalar %v, columnar %v", a, b)
	}
	if a, b := scalarSup.Recover(), colSup.Recover(); !reflect.DeepEqual(a, b) {
		t.Fatalf("Recover: scalar %v, columnar %v", a, b)
	}

	if !reflect.DeepEqual(scalarHH.HeavyHitters(), colHH.HeavyHitters()) {
		t.Fatalf("HeavyHitters: scalar %v, columnar %v", scalarHH.HeavyHitters(), colHH.HeavyHitters())
	}
	for i := uint64(0); i < 1<<12; i += 31 {
		if qa, qb := scalarHH.Estimate(i), colHH.Estimate(i); qa != qb {
			t.Fatalf("Estimate(%d): scalar %v, columnar %v", i, qa, qb)
		}
	}
	// The sync sketches subtract to the empty difference: identical state.
	wire, err := scalarSyn.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := colSyn.SubRemote(wire); err != nil {
		t.Fatal(err)
	}
	diff, err := colSyn.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 0 {
		t.Fatalf("columnar sync sketch differs from scalar: %v", diff)
	}
}

// TestIngestRolesAgree is the three-role ingest contract over every
// public structure: UpdateBatch is plan + UpdateColumns and nothing
// else, so feeding the same chunks through UpdateBatch and through an
// explicit PlanBatch + UpdateColumns must leave byte-identical
// MarshalBinary state; and where a structure's batch path is
// bit-identical to the per-item oracle as STATE (not just as answers),
// per-item Update must leave those same bytes too. The three
// tracker-bearing structures are held to the oracle by answers instead
// (TestPublicUpdateColumns, the internal differentials): a batch offers
// each distinct index once with its final estimate, the per-item path
// offers after every update, so the candidate heap's layout — not its
// decisions — can differ. So is the strict L1 estimator, whose batch
// is one walk of its Morris clock: equal to per-item feeding in law
// (l1.TestWalkMatchesPerUnitLaw), not in draws. At level 0 — this
// stream never leaves it — its estimate is the exact count on both.
func TestIngestRolesAgree(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 12000, Alpha: 4, Zipf: 1.4, Seed: 9})
	cfg := Config{N: 1 << 12, Eps: 0.1, Alpha: 4, Seed: 77}
	type feed struct {
		item    func(i uint64, delta int64)
		batch   func([]Update)
		columns func(*Batch)
	}
	first := func(sk Sketch) feed { return feed{sk.Update, sk.UpdateBatch, sk.UpdateColumns} }
	second := func(sk Sketch) feed {
		ip := sk.(*InnerProduct)
		return feed{ip.UpdateG, ip.UpdateBatchG, ip.UpdateColumnsG}
	}
	for _, tc := range []struct {
		name      string
		build     func() Sketch
		feed      func(Sketch) feed
		itemBytes bool // per-item Update leaves the batch path's bytes
	}{
		{"HeavyHitters", func() Sketch { return must(NewHeavyHitters(cfg)) }, first, false},
		{"HeavyHitters/general", func() Sketch { return must(NewHeavyHitters(cfg, WithStrict(false))) }, first, false},
		{"L1Estimator", func() Sketch { return must(NewL1Estimator(cfg)) }, first, false},
		{"L1Estimator/general", func() Sketch { return must(NewL1Estimator(cfg, WithStrict(false))) }, first, true},
		{"L0Estimator", func() Sketch { return must(NewL0Estimator(cfg)) }, first, true},
		{"L1Sampler", func() Sketch { return must(NewL1Sampler(cfg, WithCopies(2))) }, first, false},
		{"SupportSampler", func() Sketch { return must(NewSupportSampler(cfg, WithK(8))) }, first, true},
		{"InnerProduct/f", func() Sketch { return must(NewInnerProduct(cfg)) }, first, true},
		{"InnerProduct/g", func() Sketch { return must(NewInnerProduct(cfg)) }, second, true},
		{"L2HeavyHitters", func() Sketch { return must(NewL2HeavyHitters(cfg)) }, first, false},
		{"SyncSketch", func() Sketch { return must(NewSyncSketch(cfg, WithCapacity(128))) }, first, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			byBatch, byColumns, byItem := tc.build(), tc.build(), tc.build()
			fb, fc, fi := tc.feed(byBatch), tc.feed(byColumns), tc.feed(byItem)
			for off, k := 0, 0; off < len(s.Updates); k++ {
				end := min(off+[]int{1, 7, 513, 64, 1024}[k%5], len(s.Updates))
				chunk := s.Updates[off:end]
				fb.batch(chunk)
				b := PlanBatch(chunk)
				fc.columns(b)
				PutBatch(b)
				for _, u := range chunk {
					fi.item(u.Index, u.Delta)
				}
				off = end
			}
			fb.batch(nil) // an empty batch is a no-op on every path
			want := must(byBatch.MarshalBinary())
			if got := must(byColumns.MarshalBinary()); !bytes.Equal(got, want) {
				t.Fatal("PlanBatch + UpdateColumns state differs from UpdateBatch state")
			}
			if got := must(byItem.MarshalBinary()); tc.itemBytes && !bytes.Equal(got, want) {
				t.Fatal("per-item Update state differs from UpdateBatch state")
			}
			if l1, ok := byItem.(*L1Estimator); ok && (l1.SampleLevel() != 0 || l1.Estimate() != byBatch.(*L1Estimator).Estimate()) {
				t.Fatalf("L1 estimate at level %d: per-item %v, batch %v", l1.SampleLevel(), l1.Estimate(), byBatch.(*L1Estimator).Estimate())
			}
			if byItem.SpaceBits() != byBatch.SpaceBits() {
				t.Fatalf("SpaceBits: per-item %d, batch %d", byItem.SpaceBits(), byBatch.SpaceBits())
			}
		})
	}
}
