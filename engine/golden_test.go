package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenPartitionedSnapshot pins the "BP" image byte for byte: an
// engine holding every structure of the kinds table, fed the Figure 1
// workload in uneven chunks, must marshal to the digests recorded from
// the commit before the blob-list codec was folded into wire.Blob (the
// same probe run in both trees), re-pinned once since: when a latched
// l0.ExactSmall stopped encoding its counters. Those digests are the
// older image decoded, its latched counter lists emptied and
// re-encoded. A moved byte anywhere — envelope, blob list, any
// structure's payload — fails here.
func TestGoldenPartitionedSnapshot(t *testing.T) {
	golden := map[int]string{
		1: "638ffbae9387e73757de734c4dfcfe5a1fd68d64e51e39aa7edd6a9938ca70fc",
		2: "70ef3714fd913062ddd79069506ab99df3ccdc144f2d3c1e93264cc968eed8f4",
		4: "e535858c76822cee2ab651a3d8397652418ef3ccea0d2f1764fc156c067bfb4c",
	}
	s, _ := fig1Stream(11)
	var all Structures
	for _, k := range kinds {
		all |= k.bit
	}
	for _, shards := range []int{1, 2, 4} {
		e, err := New(testCfg, Options{Shards: shards, BatchSize: 512, Structures: all, SamplerCopies: 2})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(s.Updates); off += 777 {
			if err := e.Ingest(s.Updates[off:min(off+777, len(s.Updates))]); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := e.SnapshotPartitioned()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		sum := sha256.Sum256(snap)
		if got := hex.EncodeToString(sum[:]); got != golden[shards] {
			t.Errorf("shards=%d: %d-byte partitioned snapshot hashes to %s, the parent's to %s", shards, len(snap), got, golden[shards])
		}
	}
}
