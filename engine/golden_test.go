package engine

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/wire"
)

// TestGoldenPartitionedSnapshot pins the "BP" image byte for byte: an
// engine holding every structure of the kinds table, fed the Figure 1
// workload in uneven chunks, must marshal to the digests recorded from
// the commit before the blob-list codec was folded into wire.Blob (the
// same probe run in both trees), re-pinned twice since: when a latched
// l0.ExactSmall stopped encoding its counters, and when the L0
// estimator's level window began to follow the rows' R_t (its "0R"
// payload, now v2, no longer embeds a RoughF0). A moved byte anywhere —
// envelope, blob list, any structure's payload — fails here.
//
// The image before that last re-pin is the new one with each shard's L0
// blob replaced by the one the older tree wrote (testdata, 1 and 2
// shards): it must hash to its own recorded digest, restore, and answer
// every kind's queries exactly as the new image does.
func TestGoldenPartitionedSnapshot(t *testing.T) {
	golden := map[int]string{
		1: "047e5a052b75daad4f3f0d995dc3ab44913a33ae9f50dd54c65dc92624a1bea2",
		2: "8e3aac3f2173f94cb741a6f7417694c0e2484bba6fa7804b0f2d3bb3a813c3c9",
		4: "149289840ed4a8b3e4b93bbb207869fd79e03f49b4d9e6afc806ac8e5438c395",
	}
	before := map[int]string{
		1: "638ffbae9387e73757de734c4dfcfe5a1fd68d64e51e39aa7edd6a9938ca70fc",
		2: "70ef3714fd913062ddd79069506ab99df3ccdc144f2d3c1e93264cc968eed8f4",
	}
	oldL0 := goldenOldL0Blobs(t)
	s, _ := fig1Stream(11)
	var all Structures
	for _, k := range kinds {
		all |= k.bit
	}
	opts := Options{BatchSize: 512, Structures: all, SamplerCopies: 2}
	for _, shards := range []int{1, 2, 4} {
		opts.Shards = shards
		e, err := New(testCfg, opts)
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
		if got := digest(snap); got != golden[shards] {
			t.Errorf("shards=%d: %d-byte partitioned snapshot hashes to %s, the parent's to %s", shards, len(snap), got, golden[shards])
		}
		if before[shards] == "" {
			continue
		}
		var ps wire.PartSnapshot
		if err := ps.UnmarshalBinary(snap); err != nil {
			t.Fatal(err)
		}
		for _, blobs := range ps.Shards {
			for j := range blobs {
				if Structures(blobs[j].Bit) == L0Estimator {
					blobs[j].Payload, oldL0 = oldL0[0], oldL0[1:]
				}
			}
		}
		old, err := ps.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(old); got != before[shards] {
			t.Fatalf("shards=%d: the older image rebuilt from testdata hashes to %s, recorded %s", shards, got, before[shards])
		}
		opts := opts
		opts.Shards = 0 // the checkpoint's own
		answers := func(img []byte) string {
			e, err := RestoreCheckpoint(img, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			idxs := queryIndices()
			sample, ok, err := e.Sample()
			decoded, decodeErr := must(e.SyncSketch()).Decode() // past its capacity: an error, the same one
			return fmt.Sprint(must(e.HeavyHitters()), must(e.L1()), must(e.L0()), sample, ok, err,
				must(e.Support()), must(e.L2HeavyHitters()), decoded, decodeErr,
				must(e.EstimateBatch(idxs)), must(e.ProbeBatch(idxs)))
		}
		if a, b := answers(snap), answers(old); a != b {
			t.Errorf("shards=%d: the older image answers differently from the new one", shards)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenOldL0Blobs returns the L0 blobs of the image before the last
// re-pin, the 1-shard image's first, then the 2-shard image's by shard:
// testdata/golden_l0_v1.gz is their concatenation, each behind a u32
// length.
func goldenOldL0Blobs(t *testing.T) [][]byte {
	f, err := os.Open("testdata/golden_l0_v1.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for len(data) >= 4 {
		n := int(binary.LittleEndian.Uint32(data))
		if n > len(data)-4 {
			t.Fatal("testdata/golden_l0_v1.gz: truncated blob")
		}
		blobs, data = append(blobs, bytes.Clone(data[4:4+n])), data[4+n:]
	}
	if len(blobs) != 3 || len(data) != 0 {
		t.Fatalf("testdata/golden_l0_v1.gz holds %d blobs and %d stray bytes, want 3 and none", len(blobs), len(data))
	}
	return blobs
}
