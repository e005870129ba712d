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
