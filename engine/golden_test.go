package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/wire/wiretest"
)

// TestGoldenPartitionedSnapshot pins the "BP" image byte for byte: an
// engine holding every structure of the kinds table, fed the Figure 1
// workload in uneven chunks, must marshal to the digests recorded. They
// were last re-pinned at wire format v4, when every count column began
// to travel at the width most of its entries need with the few wide
// ones patched in, and the candidate ids became a count column. A moved
// byte anywhere — envelope, blob list, any structure's state — fails
// here.
//
// Beside each byte digest sits the digest of every answer the image
// gives once restored, recorded by the same probe in the tree before
// the v2 re-pin and unmoved by v3's, the clock walk's or v4's: the
// bytes moved, the answers did not.
func TestGoldenPartitionedSnapshot(t *testing.T) {
	golden := map[int]string{
		1: "87270ecbd267ad8d005592a9590dfaea51fb8a1adc19eef1d7a77db50190394c",
		2: "2c798c866030bf6d1075862104c1e1a21e6054c1778c5e4bcd95a75985247da4",
		4: "09230b2d87afd17dd452e8c87a0cdabd6b865a66c788ea3b41b003d7cc5f6889",
	}
	answers := map[int]string{
		1: "7eef854e57522fa3cb9358a9308e03dc4aaa3019cbfc0748b8c59af7942fb6f5",
		2: "88da2b3df066e517c1e8346faa0f04ee52203e46aa339289b1efd97878be309a",
		4: "44d5e5774b288f88a78e18f99cabd1a00125984cf6b0cdaf328ecc885a610bef",
	}
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
			t.Errorf("shards=%d: %d-byte partitioned snapshot hashes to %s, recorded %s", shards, len(snap), got, golden[shards])
		}
		if got := digest([]byte(restoredAnswers(t, snap, opts))); got != answers[shards] {
			t.Errorf("shards=%d: the restored image's answers hash to %s, the parent's to %s", shards, got, answers[shards])
		}
	}
}

// restoredAnswers opens a partitioned image with its own topology and
// lists every answer it gives but Sample's, which reads a draw the
// restore seeded: what a re-pin of the bytes must leave alone.
func restoredAnswers(t *testing.T, img []byte, opts Options) string {
	t.Helper()
	opts.Shards = 0 // the checkpoint's own
	e, err := RestoreCheckpoint(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	idxs := queryIndices()
	decoded, decodeErr := must(e.SyncSketch()).Decode() // past its capacity: an error, the same one
	return fmt.Sprint(must(e.HeavyHitters()), must(e.L1()), must(e.L0()),
		must(e.Support()), must(e.L2HeavyHitters()), decoded, decodeErr,
		must(e.EstimateBatch(idxs)), must(e.ProbeBatch(idxs)))
}

// TestRefusesV3Image: the golden image as the format-3 encoder wrote it
// is refused with an error naming the format, not read by a second
// decode path: a v3 checkpoint is re-sent, not translated.
func TestRefusesV3Image(t *testing.T) {
	img := wiretest.V3Image(t, "..")
	e, err := RestoreCheckpoint(img, Options{BatchSize: 512, SamplerCopies: 2})
	if err == nil {
		e.Close()
		t.Fatal("a format-3 image restored")
	}
	if !strings.Contains(err.Error(), "unsupported wire format version 3") {
		t.Fatalf("a format-3 image: err = %v, want one naming format 3", err)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
