package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	bounded "repro"
)

// snapshotSketch ships one structure out of an engine the way a peer
// receives it: Snapshot bytes through bounded.UnmarshalSketch.
func snapshotSketch(t *testing.T, e *Engine, kind Structures) bounded.Sketch {
	t.Helper()
	wire, err := e.Snapshot(kind)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := kind.Kind()
	if k, err := bounded.SketchKind(wire); err != nil || k != want {
		t.Fatalf("snapshot kind = %v, %v; want %v", k, err, want)
	}
	sk, err := bounded.UnmarshalSketch(wire)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestSnapshotRestoreAcrossEngines models the distributed-monitoring
// deployment the wire format exists for: two engines (two "sites")
// ingest disjoint substreams, each Snapshots its merged state, and a
// receiver combines them with UnmarshalSketch + Merge — the only import
// semantics there is. The union answers identically to a single engine
// that ingested everything.
func TestSnapshotRestoreAcrossEngines(t *testing.T) {
	s, _ := fig1Stream(19)
	half := len(s.Updates) / 2

	ingested := func(shards int, updates []bounded.Update) *Engine {
		e, err := New(testCfg, Options{Shards: shards, BatchSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		if err := e.Ingest(updates); err != nil {
			t.Fatal(err)
		}
		return e
	}
	whole := ingested(2, s.Updates)
	siteA := ingested(2, s.Updates[:half])
	siteB := ingested(3, s.Updates[half:])

	union := snapshotSketch(t, siteA, HeavyHitters)
	if err := union.Merge(snapshotSketch(t, siteB, HeavyHitters)); err != nil {
		t.Fatal(err)
	}
	got := union.(*bounded.HeavyHitters)
	ref := snapshotSketch(t, whole, HeavyHitters).(*bounded.HeavyHitters)

	want, err := whole.HeavyHitters()
	if err != nil {
		t.Fatal(err)
	}
	if hh := got.HeavyHitters(); !reflect.DeepEqual(hh, want) {
		t.Fatalf("two merged sites answer %v, whole-stream engine answers %v", hh, want)
	}
	// Merged counters are identical: the union of the two sites' shipped
	// states answers every point estimate like the whole-stream engine's
	// shipped state. (Engine.Estimate itself answers from the owning
	// shard's live structure, which legitimately differs between
	// topologies — the merged state is the invariant.)
	for _, i := range want {
		if g, w := got.Estimate(i), ref.Estimate(i); g != w {
			t.Fatalf("merged estimate of %d: two sites %v, whole %v", i, g, w)
		}
	}
	// Shipping state is a read: both sites keep ingesting afterwards.
	if err := siteA.Ingest([]bounded.Update{{Index: 1, Delta: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := siteA.HeavyHitters(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTripsThroughUnmarshalSketch: an engine snapshot is a
// plain library payload — a direct bounded consumer can restore it
// without an engine on the other side.
func TestSnapshotRoundTripsThroughUnmarshalSketch(t *testing.T) {
	s, _ := fig1Stream(23)
	e, err := New(testCfg, Options{Shards: 4, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Ingest(s.Updates); err != nil {
		t.Fatal(err)
	}
	wire, err := e.Snapshot(HeavyHitters)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := bounded.UnmarshalSketch(wire)
	if err != nil {
		t.Fatal(err)
	}
	hh, ok := sk.(*bounded.HeavyHitters)
	if !ok {
		t.Fatalf("snapshot restored as %T", sk)
	}
	want, err := e.HeavyHitters()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hh.HeavyHitters(), want) {
		t.Fatalf("standalone restore answers %v, engine answers %v", hh.HeavyHitters(), want)
	}
}

// TestEngineRejectsBadL1Delta: an out-of-range Options.L1Delta must
// surface NewL1Estimator's descriptive error from engine.New, not be
// silently replaced by the default (the clamp this PR removes).
func TestEngineRejectsBadL1Delta(t *testing.T) {
	for _, delta := range []float64{1.5, -0.2, 1} {
		if _, err := New(testCfg, Options{Structures: L1Estimator, L1Delta: delta}); err == nil {
			t.Errorf("engine.New accepted L1Delta = %v", delta)
		}
	}
	// Zero still means "the constructor's default".
	e, err := New(testCfg, Options{Structures: L1Estimator})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	// The general variant has no delta knob; a set L1Delta is ignored
	// there (the historical behavior), not rejected.
	g, err := New(testCfg, Options{Structures: L1Estimator, General: true, L1Delta: 0.05})
	if err != nil {
		t.Fatalf("General+L1Delta rejected: %v", err)
	}
	g.Close()
}

// TestSnapshotRestoreErrors covers the failure surface of shipping one
// structure: Snapshot's argument checks on the sending side, and on the
// receiving side UnmarshalSketch rejecting garbage and Merge refusing a
// different-seed or different-kind sketch.
func TestSnapshotRestoreErrors(t *testing.T) {
	e, err := New(testCfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Snapshot(HeavyHitters | L1Estimator); err == nil || !strings.Contains(err.Error(), "HeavyHitters|L1Estimator") {
		t.Errorf("Snapshot of two bits: %v, want an error naming HeavyHitters|L1Estimator", err)
	}
	if _, err := e.Snapshot(0); err == nil {
		t.Error("Snapshot accepted zero bits")
	}
	if _, err := e.Snapshot(L0Estimator); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("Snapshot of a disabled structure: %v, want ErrNotEnabled", err)
	}
	if _, err := e.Snapshot(SyncSketch << 1); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("Snapshot of an unknown bit: %v, want ErrNotEnabled", err)
	}
	if _, err := bounded.UnmarshalSketch([]byte("garbage")); err == nil {
		t.Error("UnmarshalSketch accepted garbage")
	}
	local := snapshotSketch(t, e, HeavyHitters)
	// A payload from a different seed unmarshals fine but must be
	// refused at merge time (hash wirings differ).
	otherCfg := testCfg
	otherCfg.Seed = 999
	other, err := New(otherCfg, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := local.Merge(snapshotSketch(t, other, HeavyHitters)); err == nil {
		t.Error("Merge accepted a different-seed snapshot")
	}
	// So must a different structure's payload.
	if err := local.Merge(must(bounded.NewL0Estimator(testCfg))); err == nil {
		t.Error("Merge accepted a different structure")
	}
}
