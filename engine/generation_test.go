package engine

import (
	"testing"

	bounded "repro"
)

// TestGenerationSemantics pins the incremental-sync token's contract:
// the generation moves on Ingest and RestorePartitioned, and ONLY on
// those — queries, flushes, and snapshot marshals leave it unchanged,
// so an agent comparing generations across a quiet interval correctly
// skips shipping state.
func TestGenerationSemantics(t *testing.T) {
	cfg := bounded.Config{N: 1 << 12, Eps: 0.1, Alpha: 4, Seed: 5}
	e, err := New(cfg, Options{Shards: 2, Structures: HeavyHitters})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if g := e.Generation(); g != 0 {
		t.Fatalf("fresh engine generation = %d, want 0", g)
	}
	if err := e.Ingest([]bounded.Update{{Index: 1, Delta: 1}, {Index: 2, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	g1 := e.Generation()
	if g1 == 0 {
		t.Fatal("Ingest did not advance the generation")
	}

	// Quiet-interval operations must not move it.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.HeavyHitters(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(HeavyHitters)
	if err != nil {
		t.Fatal(err)
	}
	if g := e.Generation(); g != g1 {
		t.Fatalf("queries/snapshot moved the generation: %d -> %d", g1, g)
	}

	// Shipping a snapshot into a peer sketch happens outside the engine:
	// UnmarshalSketch + Merge is not a state change here.
	peer := must(bounded.NewHeavyHitters(cfg))
	if err := peer.Merge(must(bounded.UnmarshalSketch(snap))); err != nil {
		t.Fatal(err)
	}
	if g := e.Generation(); g != g1 {
		t.Fatalf("a peer merging the snapshot moved the generation: %d -> %d", g1, g)
	}

	// RestorePartitioned is a state change: it must advance.
	part, err := e.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, Options{Shards: 2, Structures: HeavyHitters})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RestorePartitioned(part); err != nil {
		t.Fatal(err)
	}
	if g := fresh.Generation(); g == 0 {
		t.Fatal("RestorePartitioned did not advance the generation")
	}

	if e.Structures() != HeavyHitters {
		t.Fatalf("Structures() = %v, want HeavyHitters", e.Structures())
	}
}
