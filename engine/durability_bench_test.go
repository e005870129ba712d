package engine

import (
	"fmt"
	"testing"

	"repro/internal/ckpt"
)

const benchDurStructures = HeavyHitters | L1Estimator | SupportSampler

func benchLoadedEngine(b *testing.B, shards int) *Engine {
	b.Helper()
	s, _ := fig1Stream(31)
	e := must(New(testCfg, Options{Shards: shards, BatchSize: 1024, Structures: benchDurStructures}))
	if err := e.Ingest(s.Updates); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkSnapshotPartitioned measures serializing the live sharded
// state in place (per-shard marshal inside the shard goroutines, no
// merge). bytes/op is the snapshot size.
func BenchmarkSnapshotPartitioned(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchLoadedEngine(b, shards)
			defer e.Close()
			snap, err := e.SnapshotPartitioned()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.SnapshotPartitioned(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestorePartitioned measures installing a matched-topology
// snapshot into a fresh engine (decode + per-shard install; the
// engine build itself is excluded).
func BenchmarkRestorePartitioned(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			src := benchLoadedEngine(b, shards)
			defer src.Close()
			snap, err := src.SnapshotPartitioned()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := must(New(testCfg, Options{Shards: shards, Structures: benchDurStructures}))
				b.StartTimer()
				if err := dst.RestorePartitioned(snap); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				dst.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkCheckpointSave measures the full durable write: partitioned
// snapshot + CRC frame + atomic write-fsync-rename + prune.
func BenchmarkCheckpointSave(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchLoadedEngine(b, shards)
			defer e.Close()
			store, err := ckpt.Open(b.TempDir(), ckpt.Options{})
			if err != nil {
				b.Fatal(err)
			}
			snap, err := e.SnapshotPartitioned()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(snap)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.CheckpointTo(store); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointOpen measures cold restart: read newest valid
// checkpoint from disk, CRC-verify, build the engine, install state.
func BenchmarkCheckpointOpen(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchLoadedEngine(b, shards)
			defer e.Close()
			dir := b.TempDir()
			if err := e.Checkpoint(dir); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := OpenCheckpoint(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				r.Close()
				b.StartTimer()
			}
		})
	}
}
