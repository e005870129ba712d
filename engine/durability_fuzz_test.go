package engine

import (
	"bytes"
	"encoding/binary"
	"testing"

	bounded "repro"
	"repro/internal/wire"
)

// fuzzCfg keeps per-exec engine construction cheap.
var fuzzCfg = bounded.Config{N: 1 << 10, Eps: 0.2, Alpha: 4, Seed: 5}

const fuzzStructures = HeavyHitters | SupportSampler

func fuzzSnapshotSeed(shards int) []byte {
	e, err := New(fuzzCfg, Options{Shards: shards, Structures: fuzzStructures})
	if err != nil {
		panic(err)
	}
	defer e.Close()
	if err := e.Ingest([]bounded.Update{{Index: 1, Delta: 3}, {Index: 7, Delta: 1}, {Index: 1, Delta: -1}}); err != nil {
		panic(err)
	}
	snap, err := e.SnapshotPartitioned()
	if err != nil {
		panic(err)
	}
	return snap
}

// foreignSeedSnapshot is valid with shard 0's heavy-hitters blob taken
// from an engine built from another Seed and its Config echo rewritten
// to the receiver's: an honest echo over a state built under foreign
// hash functions. Where a blob carried its hash coefficients, such a
// blob was admitted and then failed every merge of the shards.
func foreignSeedSnapshot(valid []byte) []byte {
	foreign := fuzzCfg
	foreign.Seed++
	e, err := New(foreign, Options{Shards: 2, Structures: fuzzStructures})
	if err != nil {
		panic(err)
	}
	defer e.Close()
	if err := e.Ingest([]bounded.Update{{Index: 1, Delta: 3}, {Index: 7, Delta: 1}}); err != nil {
		panic(err)
	}
	var src, dst wire.PartSnapshot
	if err := src.UnmarshalBinary(must(e.SnapshotPartitioned())); err != nil {
		panic(err)
	}
	if err := dst.UnmarshalBinary(valid); err != nil {
		panic(err)
	}
	blob := bytes.Clone(src.Shards[0][0].Payload)                  // HeavyHitters: the lowest bit
	binary.LittleEndian.PutUint64(blob[28:], uint64(fuzzCfg.Seed)) // the Seed echo, after magic, version, kind, N, Eps and Alpha
	dst.Shards[0][0].Payload = blob
	return must(dst.MarshalBinary())
}

// FuzzPartitionedSnapshot throws arbitrary bytes at RestorePartitioned.
// The decode-all-then-install contract under test: malformed input of
// any kind errors without panicking and without committing partial
// state (the engine stays pristine — generation 0 — and still accepts
// a valid snapshot afterwards); accepted input leaves a fully live
// engine, every structure of which merges into one built from the
// receiver's Config and options.
func FuzzPartitionedSnapshot(f *testing.F) {
	valid := fuzzSnapshotSeed(2)
	f.Add(valid)
	f.Add(foreignSeedSnapshot(valid))
	f.Add(fuzzSnapshotSeed(1))
	for _, cut := range []int{1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("BP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := New(fuzzCfg, Options{Shards: 2, Structures: fuzzStructures})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rerr := e.RestorePartitioned(data)
		if rerr == nil {
			// Admitted ⇒ mergeable: each installed structure merges into
			// one the receiver builds.
			for s, set := range e.sets {
				for row, sk := range set {
					if sk == nil {
						continue
					}
					recv, err := kinds[row].build(fuzzCfg, e.opt)
					if err != nil {
						t.Fatal(err)
					}
					if err := recv.Merge(sk); err != nil {
						t.Fatalf("shard %d: an admitted %s does not merge into the receiver's: %v", s, kinds[row].kind, err)
					}
				}
			}
		}
		if rerr != nil {
			// Failed restores must leave the engine untouched and still
			// pristine: the known-good snapshot installs cleanly after.
			if g := e.Generation(); g != 0 {
				t.Fatalf("failed restore advanced generation to %d", g)
			}
			if err := e.RestorePartitioned(valid); err != nil {
				t.Fatalf("engine rejected valid snapshot after failed restore: %v", err)
			}
		}
		// Either way the engine must be fully live now.
		if _, err := e.Estimate(1); err != nil {
			t.Fatalf("Estimate after restore: %v", err)
		}
		if _, err := e.Support(); err != nil {
			t.Fatalf("Support after restore: %v", err)
		}
		if err := e.Ingest([]bounded.Update{{Index: 2, Delta: 1}}); err != nil {
			t.Fatalf("Ingest after restore: %v", err)
		}
	})
}
