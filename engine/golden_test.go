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
// same probe run in both trees). A moved byte anywhere — envelope, blob
// list, any structure's payload — fails here.
func TestGoldenPartitionedSnapshot(t *testing.T) {
	golden := map[int]string{
		1: "689d4260d77d72ca54145a7c374b56239ba086755043680bebe52b2be377e578",
		2: "cdb41ad25fb6a8390fabd4e231f3e892c8a03b112d858b79ccc8361ad7c9c74c",
		4: "18713d62e08b7a1116fc565514ead4ee40eebb8f0eee90697acf9eb0415bb7ba",
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
