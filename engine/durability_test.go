package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// durTestStructures is the structure set the durability differential
// runs with: every routed-read family (Estimate/EstimateBatch via
// HeavyHitters, Probe/Support via SupportSampler) plus a global-query
// structure (L1Estimator) to cover the merged path too.
const durTestStructures = HeavyHitters | L1Estimator | SupportSampler

// queryIndices is the probe set the differential compares on: a dense
// low range (hits the Zipf head) plus a sparse sweep of the universe.
func queryIndices() []uint64 {
	idxs := make([]uint64, 0, 1256)
	for i := uint64(0); i < 1000; i++ {
		idxs = append(idxs, i)
	}
	for i := uint64(0); i < 1<<16; i += 256 {
		idxs = append(idxs, i)
	}
	return idxs
}

// buildIngested returns an engine with the Figure 1 workload ingested
// in uneven chunks.
func buildIngested(t *testing.T, shards int) *Engine {
	t.Helper()
	s, _ := fig1Stream(11)
	e, err := New(testCfg, Options{Shards: shards, BatchSize: 512, Structures: durTestStructures})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(s.Updates); off += 777 {
		end := off + 777
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		if err := e.Ingest(s.Updates[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// assertBitIdentical compares every routed and global read of two
// engines bit-for-bit.
func assertBitIdentical(t *testing.T, want, got *Engine) {
	t.Helper()
	assertRoutedIdentical(t, want, got)
	wl := must(want.L1())
	gl := must(got.L1())
	if wl != gl {
		t.Fatalf("L1: got %v, want %v", gl, wl)
	}
}

// assertRoutedIdentical compares the five routed reads of two engines
// bit-for-bit; none of them may build a merged view.
func assertRoutedIdentical(t *testing.T, want, got *Engine) {
	t.Helper()
	idxs := queryIndices()
	for _, i := range idxs[:64] { // scalar path on a subset; batch below covers all
		w := must(want.Estimate(i))
		g := must(got.Estimate(i))
		if w != g {
			t.Fatalf("Estimate(%d): got %v, want %v", i, g, w)
		}
		wp := must(want.Probe(i))
		gp := must(got.Probe(i))
		if wp != gp {
			t.Fatalf("Probe(%d): got %v, want %v", i, gp, wp)
		}
	}
	wb := must(want.EstimateBatch(idxs))
	gb := must(got.EstimateBatch(idxs))
	for j := range wb {
		if wb[j] != gb[j] {
			t.Fatalf("EstimateBatch[%d] (index %d): got %v, want %v", j, idxs[j], gb[j], wb[j])
		}
	}
	ws := must(want.Support())
	gs := must(got.Support())
	if len(ws) != len(gs) {
		t.Fatalf("Support length: got %d, want %d", len(gs), len(ws))
	}
	for j := range ws {
		if ws[j] != gs[j] {
			t.Fatalf("Support[%d]: got %d, want %d", j, gs[j], ws[j])
		}
	}
	wp := must(want.ProbeBatch(idxs))
	gp := must(got.ProbeBatch(idxs))
	for j := range wp {
		if wp[j] != gp[j] {
			t.Fatalf("ProbeBatch[%d] (index %d): got %v, want %v", j, idxs[j], gp[j], wp[j])
		}
	}
}

// TestRestorePartitionedDifferential is the acceptance differential:
// snapshot a sharded engine, restore into a fresh engine with the same
// topology, and every read answers bit-identically — with the restored
// engine's routed reads still live (SnapshotBuilds stays 0 through the
// whole point/probe/support sequence).
func TestRestorePartitionedDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		src := buildIngested(t, shards)
		snap, err := src.SnapshotPartitioned()
		if err != nil {
			t.Fatal(err)
		}
		dst, err := New(testCfg, Options{Shards: shards, BatchSize: 512, Structures: durTestStructures})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestorePartitioned(snap); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}

		// Routed reads first, then assert no merged view was ever built
		// for them on the restored engine.
		idxs := queryIndices()
		for _, i := range idxs[:64] {
			if w, g := must(src.Estimate(i)), must(dst.Estimate(i)); w != g {
				t.Fatalf("shards=%d: Estimate(%d): got %v, want %v", shards, i, g, w)
			}
			if w, g := must(src.Probe(i)), must(dst.Probe(i)); w != g {
				t.Fatalf("shards=%d: Probe(%d): got %v, want %v", shards, i, g, w)
			}
		}
		wb, gb := must(src.EstimateBatch(idxs)), must(dst.EstimateBatch(idxs))
		for j := range wb {
			if wb[j] != gb[j] {
				t.Fatalf("shards=%d: EstimateBatch[%d]: got %v, want %v", shards, j, gb[j], wb[j])
			}
		}
		ws, gs := must(src.Support()), must(dst.Support())
		if len(ws) != len(gs) {
			t.Fatalf("shards=%d: Support length: got %d, want %d", shards, len(gs), len(ws))
		}
		for j := range ws {
			if ws[j] != gs[j] {
				t.Fatalf("shards=%d: Support[%d]: got %d, want %d", shards, j, gs[j], ws[j])
			}
		}
		if n := dst.Stats().SnapshotBuilds; n != 0 {
			t.Fatalf("shards=%d: restored engine built %d merged views on routed reads, want 0", shards, n)
		}
		// Global reads still work (and are allowed to build the view).
		if w, g := must(src.L1()), must(dst.L1()); w != g {
			t.Fatalf("shards=%d: L1: got %v, want %v", shards, g, w)
		}
		if n := dst.Stats().PartitionedRestores; n != 1 {
			t.Fatalf("shards=%d: PartitionedRestores = %d, want 1", shards, n)
		}
		// The restored engine is live: it accepts further ingest and its
		// snapshot round-trips again.
		src.Close()
		dst.Close()
	}
}

// TestRestorePartitionedShardMismatch: sketch state cannot be re-keyed,
// so a 4-shard snapshot offered to an engine with a different shard
// count is refused with an error naming both counts and the way out,
// the engine stays pristine (it then accepts a snapshot of its own
// topology), and RestoreCheckpoint with zero Options opens the same
// bytes at the snapshot's topology — bit-identical to the source, with
// routed reads intact.
func TestRestorePartitionedShardMismatch(t *testing.T) {
	src := buildIngested(t, 4)
	defer src.Close()
	snap, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 8} {
		dst, err := New(testCfg, Options{Shards: shards, Structures: durTestStructures})
		if err != nil {
			t.Fatal(err)
		}
		err = dst.RestorePartitioned(snap)
		if err == nil {
			t.Fatalf("shards=%d: engine accepted a 4-shard snapshot", shards)
		}
		for _, want := range []string{"4 shards", fmt.Sprintf("engine has %d", shards), "RestoreCheckpoint(payload, Options{})"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("shards=%d: mismatch error %q does not mention %q", shards, err, want)
			}
		}
		if g := dst.Generation(); g != 0 {
			t.Fatalf("shards=%d: refused restore advanced generation to %d", shards, g)
		}
		if n := dst.Stats().PartitionedRestores; n != 0 {
			t.Fatalf("shards=%d: refused restore counted %d installs", shards, n)
		}
		same := buildIngested(t, shards)
		matching, err := same.SnapshotPartitioned()
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestorePartitioned(matching); err != nil {
			t.Fatalf("shards=%d: engine refused a matching snapshot after the mismatch: %v", shards, err)
		}
		assertBitIdentical(t, same, dst)
		same.Close()
		dst.Close()
	}

	opened, err := RestoreCheckpoint(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.Shards() != 4 || opened.Structures() != durTestStructures {
		t.Fatalf("RestoreCheckpoint opened %d shards / %s, want 4 / %s", opened.Shards(), opened.Structures(), durTestStructures)
	}
	assertRoutedIdentical(t, src, opened)
	if n := opened.Stats().SnapshotBuilds; n != 0 {
		t.Fatalf("engine opened at the snapshot's topology built %d merged views on routed reads, want 0", n)
	}
	if _, err := RestoreCheckpoint(snap, Options{Shards: 2}); err == nil {
		t.Fatal("RestoreCheckpoint with an explicit mismatched shard count succeeded")
	}
}

// TestRestorePartitionedStructureSubset: an engine whose enabled set is
// a superset of the snapshot's restores fine, with the extra structure
// empty; a snapshot carrying a structure the engine lacks is rejected.
func TestRestorePartitionedStructureRules(t *testing.T) {
	src := buildIngested(t, 2)
	defer src.Close()
	snap, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}

	super, err := New(testCfg, Options{Shards: 2, Structures: durTestStructures | L0Estimator})
	if err != nil {
		t.Fatal(err)
	}
	defer super.Close()
	if err := super.RestorePartitioned(snap); err != nil {
		t.Fatalf("superset engine rejected subset snapshot: %v", err)
	}
	if w, g := must(src.L1()), must(super.L1()); w != g {
		t.Fatalf("L1 after superset restore: got %v, want %v", g, w)
	}
	if _, err := super.L0(); err != nil {
		t.Fatalf("extra (empty) structure unusable after restore: %v", err)
	}

	sub, err := New(testCfg, Options{Shards: 2, Structures: HeavyHitters})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The refusal names the missing structures, not their bit pattern.
	if err := sub.RestorePartitioned(snap); err == nil || !strings.Contains(err.Error(), "L1Estimator|SupportSampler") {
		t.Fatalf("engine missing snapshot structures: %v, want an error naming L1Estimator|SupportSampler", err)
	}
	if g := sub.Generation(); g != 0 {
		t.Fatalf("failed restore advanced generation to %d", g)
	}
}

// TestRestorePartitionedRequiresPristine: any prior state-changing
// operation (Ingest, RestorePartitioned) blocks a partitioned restore.
func TestRestorePartitionedRequiresPristine(t *testing.T) {
	src := buildIngested(t, 2)
	defer src.Close()
	snap, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}

	dirty := buildIngested(t, 2)
	defer dirty.Close()
	if err := dirty.RestorePartitioned(snap); err == nil {
		t.Fatal("ingested engine accepted a partitioned restore")
	}

	dst, err := New(testCfg, Options{Shards: 2, Structures: durTestStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.RestorePartitioned(snap); err != nil {
		t.Fatal(err)
	}
	if err := dst.RestorePartitioned(snap); err == nil {
		t.Fatal("second partitioned restore accepted")
	}
}

// TestRestorePartitionedValidation: config mismatches and corrupted
// payloads are rejected atomically — the engine stays pristine and a
// good snapshot still restores afterwards.
func TestRestorePartitionedValidation(t *testing.T) {
	src := buildIngested(t, 2)
	defer src.Close()
	snap, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}

	otherCfg := testCfg
	otherCfg.Seed = 999
	wrongCfg, err := New(otherCfg, Options{Shards: 2, Structures: durTestStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer wrongCfg.Close()
	if err := wrongCfg.RestorePartitioned(snap); err == nil {
		t.Fatal("engine with different Config accepted the snapshot")
	}

	dst, err := New(testCfg, Options{Shards: 2, Structures: durTestStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	// Every truncation must fail without committing anything. (A flipped
	// byte inside raw sketch cell data is structurally valid and thus
	// not the engine's to detect — bit-level corruption on disk is
	// caught by internal/ckpt's CRC framing before payloads reach this
	// layer.)
	for _, cut := range []int{0, 1, len(snap) / 4, len(snap) / 2, len(snap) - 1} {
		if err := dst.RestorePartitioned(snap[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if g := dst.Generation(); g != 0 {
			t.Fatalf("failed restore (truncation at %d) advanced generation to %d", cut, g)
		}
	}
	// The same engine, still pristine, accepts the intact snapshot.
	if err := dst.RestorePartitioned(snap); err != nil {
		t.Fatalf("pristine engine rejected intact snapshot after failed attempts: %v", err)
	}
	assertBitIdentical(t, src, dst)
}

// TestCheckpointRoundTrip drives the on-disk path end to end:
// Checkpoint writes through internal/ckpt, OpenCheckpoint recovers
// with topology auto-filled from the header, and the recovered engine
// answers bit-identically with routed reads intact.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	src := buildIngested(t, 4)
	defer src.Close()
	if err := src.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	got, err := OpenCheckpoint(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Shards() != 4 || got.Structures() != durTestStructures {
		t.Fatalf("recovered topology %d shards / %b, want 4 / %b", got.Shards(), got.Structures(), durTestStructures)
	}
	assertBitIdentical(t, src, got)
	if n := got.Stats().SnapshotBuilds; n > 1 {
		// assertBitIdentical ends with one global L1 read, which may
		// build the merged view once; routed reads must not have.
		t.Fatalf("recovered engine built %d merged views, want <=1", n)
	}

	if _, err := OpenCheckpoint(filepath.Join(t.TempDir(), "empty"), Options{}); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("OpenCheckpoint on empty dir = %v, want ErrNoCheckpoint", err)
	}
}

// crashWriter fails after a byte budget, like the ckpt package's own
// fault sweep but driven from the engine level.
type crashWriter struct {
	w      io.Writer
	budget *int
}

var errCrash = errors.New("injected crash")

func (c *crashWriter) Write(p []byte) (int, error) {
	if *c.budget <= 0 {
		return 0, errCrash
	}
	if len(p) <= *c.budget {
		*c.budget -= len(p)
		return c.w.Write(p)
	}
	n, err := c.w.Write(p[:*c.budget])
	*c.budget = 0
	if err != nil {
		return n, err
	}
	return n, errCrash
}

// TestCheckpointCrashRecovery: a crash at any point while writing a
// NEWER checkpoint must leave recovery landing on the previous one,
// and the recovered engine bit-identical to the pre-crash snapshot
// state.
func TestCheckpointCrashRecovery(t *testing.T) {
	src := buildIngested(t, 2)
	defer src.Close()
	snapA, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	// refA is the pre-crash state, reconstructed from the committed
	// checkpoint bytes — the engine recovery must reproduce.
	refA, err := RestoreCheckpoint(snapA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refA.Close()

	// More ingest -> state B, whose checkpoint write will crash.
	s, _ := fig1Stream(99)
	if err := src.Ingest(s.Updates[:5000]); err != nil {
		t.Fatal(err)
	}
	snapB, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}

	// Sweep fault points across state B's data-file write (every byte
	// would repeat the multi-KB engine payload; internal/ckpt's own test
	// sweeps every boundary on small payloads). All limits are at most
	// len(snapB), strictly inside the framed write, so the crashed Save
	// must always fail and recovery must always land on checkpoint A.
	for _, limit := range []int{0, 1, 7, len(snapB) / 3, len(snapB) / 2, len(snapB) - 1, len(snapB)} {
		dir := filepath.Join(t.TempDir(), "ckpt")
		budget := 1 << 62
		store, err := ckpt.Open(dir, ckpt.Options{WrapWriter: func(name string, w io.Writer) io.Writer {
			return &crashWriter{w: w, budget: &budget}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Save(snapA); err != nil {
			t.Fatal(err)
		}
		budget = limit
		if _, err := src.CheckpointTo(store); err == nil {
			t.Fatalf("limit %d: crashed checkpoint write reported success", limit)
		}

		recPayload, _, err := store.Load()
		if err != nil {
			t.Fatalf("limit %d: store recovery failed: %v", limit, err)
		}
		if !bytes.Equal(recPayload, snapA) {
			t.Fatalf("limit %d: recovery did not land on the committed checkpoint", limit)
		}
		rec, err := OpenCheckpoint(dir, Options{})
		if err != nil {
			t.Fatalf("limit %d: engine recovery failed: %v", limit, err)
		}
		assertBitIdentical(t, refA, rec)
		rec.Close()
	}
}
