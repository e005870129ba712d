package engine

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	bounded "repro"
	"repro/internal/wire"
)

// TestGeneralModelPerKind enumerates every (kind, General) pair: each
// builds a structure proven for that model or fails New with an error
// naming the kind. The L1 sampler (strong α property) and the support
// sampler are proven only for strict turnstile streams, so General
// refuses them. General heavy hitters and L1 estimators are the general
// variants, which do not combine with the strict ones; every other kind
// is one structure, proven for both models, and builds the same way.
func TestGeneralModelPerKind(t *testing.T) {
	cfg := bounded.Config{N: 1 << 12, Eps: 0.1, Alpha: 4, Seed: 5}
	for _, k := range kinds {
		strictOnly := k.bit == L1Sampler || k.bit == SupportSampler
		var built [2]bounded.Sketch
		for g, general := range []bool{false, true} {
			e, err := New(cfg, Options{Shards: 1, Structures: k.bit, General: general})
			if general && strictOnly {
				if err == nil {
					e.Close()
					t.Errorf("New built %s for the general turnstile model, which it is not proven for", k.name)
				} else if !strings.Contains(err.Error(), k.name) {
					t.Errorf("New refused a general %s without naming it: %v", k.name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, General %v: %v", k.name, general, err)
			}
			blob, err := e.Snapshot(k.bit)
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			if built[g], err = bounded.UnmarshalSketch(blob); err != nil {
				t.Fatal(err)
			}
		}
		if strictOnly {
			continue
		}
		variant := k.bit == HeavyHitters || k.bit == L1Estimator
		if err := bounded.Compatible(built[0], built[1]); variant != (err != nil) {
			t.Fatalf("%s: strict and general builds combine: %v, want %v (%v)", k.name, err == nil, !variant, err)
		}
	}
}

// TestKindTableComplete walks the one table of structure kinds: the
// rows are the Structures bits in order with nothing missing, and every
// bit on its own constructs, ships snapshots of its table kind, names
// itself by that kind, and round-trips SnapshotPartitioned →
// RestoreCheckpoint to a bit-identical engine.
func TestKindTableComplete(t *testing.T) {
	if last := kinds[len(kinds)-1].bit; last != SyncSketch {
		t.Fatalf("kinds table ends at %s, the last Structures bit is SyncSketch", last)
	}
	cfg := bounded.Config{N: 1 << 12, Eps: 0.1, Alpha: 4, Seed: 5}
	updates := []bounded.Update{{Index: 1, Delta: 3}, {Index: 7, Delta: 1}, {Index: 1, Delta: -1}, {Index: 900, Delta: 2}}
	var all Structures
	var names []string
	for i, k := range kinds {
		if k.bit != 1<<i {
			t.Fatalf("kinds[%d] holds bit %#x, want %#x", i, uint32(k.bit), 1<<i)
		}
		all |= k.bit
		names = append(names, k.kind.String())
		if got, ok := k.bit.Kind(); !ok || got != k.kind {
			t.Fatalf("%s.Kind() = %v, %v; want %v", k.bit, got, ok, k.kind)
		}
		if k.bit.String() != k.kind.String() {
			t.Fatalf("Structures bit %#x prints %q, want its kind name %q", uint32(k.bit), k.bit, k.kind)
		}

		e, err := New(cfg, Options{Shards: 2, Structures: k.bit})
		if err != nil {
			t.Fatalf("%s does not construct: %v", k.bit, err)
		}
		if err := e.Ingest(updates); err != nil {
			t.Fatal(err)
		}
		blob, err := e.Snapshot(k.bit)
		if err != nil {
			t.Fatalf("Snapshot(%s): %v", k.bit, err)
		}
		if got, err := bounded.SketchKind(blob); err != nil || got != k.kind {
			t.Fatalf("Snapshot(%s) carries kind %v, %v; want %v", k.bit, got, err, k.kind)
		}
		snap, err := e.SnapshotPartitioned()
		if err != nil {
			t.Fatal(err)
		}
		back, err := RestoreCheckpoint(snap, Options{})
		if err != nil {
			t.Fatalf("RestoreCheckpoint of a %s engine: %v", k.bit, err)
		}
		if back.Structures() != k.bit || back.Shards() != 2 {
			t.Fatalf("reopened as %d shards / %s, want 2 / %s", back.Shards(), back.Structures(), k.bit)
		}
		again, err := back.SnapshotPartitioned()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, again) {
			t.Fatalf("%s: reopened engine's partitioned snapshot differs from the one it was opened from", k.bit)
		}
		e.Close()
		back.Close()
	}
	if got, want := all.String(), strings.Join(names, "|"); got != want {
		t.Fatalf("all structures print %q, want %q", got, want)
	}
	if _, ok := (SyncSketch << 1).Kind(); ok {
		t.Fatal("a bit past the table reports a kind")
	}
	if _, ok := (HeavyHitters | L1Estimator).Kind(); ok {
		t.Fatal("a two-bit set reports a kind")
	}
	if got := (SupportSampler | SyncSketch<<1).String(); got != "SupportSampler|0x80" {
		t.Fatalf("set with an unknown bit prints %q", got)
	}
	if got := Structures(0).String(); got != "0x0" {
		t.Fatalf("empty set prints %q", got)
	}
}

// TestParseStructures: the -structures vocabulary is the kinds table's
// name column, one spelling per row in row order — pinned here, since
// the CLIs' flags accept exactly these — matched in any case with
// spaces around a name; anything else, or nothing, is refused with the
// seven names in the error.
func TestParseStructures(t *testing.T) {
	const vocabulary = "hh,l1,l0,l1sampler,support,l2hh,sync"
	for i, name := range strings.Split(vocabulary, ",") {
		for _, spelling := range []string{name, strings.ToUpper(name), " " + name + " "} {
			if got, err := ParseStructures(spelling); err != nil || got != kinds[i].bit {
				t.Errorf("ParseStructures(%q) = %s, %v; want %s", spelling, got, err, kinds[i].bit)
			}
		}
	}
	if got, err := ParseStructures(" HH, l1 "); err != nil || got != HeavyHitters|L1Estimator {
		t.Errorf(`ParseStructures(" HH, l1 ") = %s, %v; want HeavyHitters|L1Estimator`, got, err)
	}
	if got, err := ParseStructures(vocabulary); err != nil || got != SyncSketch<<1-1 {
		t.Errorf("ParseStructures of the whole vocabulary = %s, %v; want every kind", got, err)
	}
	for _, bad := range []string{"hh,bogus", "", " , "} {
		_, err := ParseStructures(bad)
		if err == nil || !strings.Contains(err.Error(), "(want "+vocabulary+")") {
			t.Errorf("ParseStructures(%q): %v, want an error listing %s", bad, err, vocabulary)
		}
	}
}

// TestStructureNamesAreWhatParseAccepts: the names the -structures
// help lists are exactly the ones ParseStructures accepts — each on its
// own is one kind, no two the same, all of them every kind — and a
// refusal lists the same names.
func TestStructureNamesAreWhatParseAccepts(t *testing.T) {
	listed := StructureNames()
	var all Structures
	for _, name := range strings.Split(listed, ",") {
		bit, err := ParseStructures(name)
		if _, one := bit.Kind(); err != nil || !one || all&bit != 0 {
			t.Fatalf("listed name %q parses to %s, %v; want one kind no other name gave", name, bit, err)
		}
		all |= bit
	}
	if got, err := ParseStructures(listed); err != nil || got != all || all != SyncSketch<<1-1 {
		t.Fatalf("ParseStructures(%q) = %s, %v; the names cover %s, want every kind", listed, got, err, all)
	}
	if _, err := ParseStructures("sketch"); err == nil || !strings.Contains(err.Error(), "(want "+listed+")") {
		t.Fatalf("an unlisted name: %v, want an error listing %s", err, listed)
	}
}

// TestRestorePartitionedRejectsMistaggedBlob: a blob filed under the
// wrong structure bit is refused by comparing the payload's wire kind
// against the table — and the refusal names both kinds.
func TestRestorePartitionedRejectsMistaggedBlob(t *testing.T) {
	src := buildIngested(t, 2)
	defer src.Close()
	snap, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	var ps wire.PartSnapshot
	if err := ps.UnmarshalBinary(snap); err != nil {
		t.Fatal(err)
	}
	// durTestStructures order: HeavyHitters, L1Estimator, SupportSampler.
	blobs := ps.Shards[0]
	blobs[0].Payload, blobs[1].Payload = blobs[1].Payload, blobs[0].Payload
	forged, err := ps.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(testCfg, Options{Shards: 2, Structures: durTestStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	err = dst.RestorePartitioned(forged)
	if err == nil || !strings.Contains(err.Error(), "tagged HeavyHitters holds a L1Estimator") {
		t.Fatalf("mistagged blob: %v, want an error saying the HeavyHitters tag holds a L1Estimator", err)
	}
	if g := dst.Generation(); g != 0 {
		t.Fatalf("refused restore advanced generation to %d", g)
	}
}

// TestDecodeBlobsAllocatesOnceOverTheBlob: admitting a blob peeks its
// kind, peeks its Config and restores it, and only the restore may
// allocate in proportion to the state — the restored tables are about
// 1x its dense length, every counter a word, and a peek or a parse that
// copies the payload adds 1x the blob each. The blob packs its counts
// (here at width 1), so the ceiling is held to the dense length instead:
// 550 497 bytes, this state's encoding when every counter travelled as
// a word (format v2), which keeps the ceiling's number of bytes.
func TestDecodeBlobsAllocatesOnceOverTheBlob(t *testing.T) {
	const denseLen = 550_497
	cfg := bounded.Config{N: 1 << 20, Eps: 0.01, Alpha: 8, Seed: 1}
	hh, err := bounded.NewHeavyHitters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		hh.Update(i*i%(1<<20), 1)
	}
	payload, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blobs := []wire.Blob{{Bit: uint32(HeavyHitters), Payload: payload}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeBlobs(blobs, HeavyHitters, cfg, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(denseLen)*3/2; got > ceiling {
		t.Fatalf("DecodeBlobs of a %d-byte blob (%d bytes dense) allocated %d bytes (%.2fx the dense length), ceiling 1.5x",
			len(payload), denseLen, got, float64(got)/denseLen)
	}
}

// TestSnapshotAllocatesTwiceOverTheBlob: a one-shard Snapshot clones the
// shard's structure for the view (about 1x the blob) and encodes it into
// ONE buffer grown once (1x) — every nesting level appends in place.
// A level that marshals its child apart and copies it in, or a size
// hint that falls short, each cost the blob again.
func TestSnapshotAllocatesTwiceOverTheBlob(t *testing.T) {
	cfg := bounded.Config{N: 1 << 20, Eps: 0.01, Alpha: 8, Seed: 1}
	e, err := New(cfg, Options{Shards: 1, Structures: HeavyHitters})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batch := make([]bounded.Update, 5000)
	for i := range batch {
		batch[i] = bounded.Update{Index: uint64(i*i) % (1 << 20), Delta: 1}
	}
	snapshot := func() ([]byte, uint64) {
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blob, err := e.Snapshot(HeavyHitters)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return blob, after.TotalAlloc - before.TotalAlloc
	}
	snapshot() // warms the engine's own scratch
	blob, got := snapshot()
	if ceiling := uint64(len(blob)) * 5 / 2; got > ceiling {
		t.Fatalf("Snapshot of a %d-byte blob allocated %d bytes (%.2fx), ceiling 2.5x",
			len(blob), got, float64(got)/float64(len(blob)))
	}
}
