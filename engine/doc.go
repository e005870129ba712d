// Package engine is the sharded concurrent ingest layer over the
// bounded-deletion sketch library (module root package "repro").
//
// Every structure in the library is single-writer: updates and queries
// share per-structure scratch, which is where the zero-allocation hot
// path comes from, and why one instance cannot absorb updates from many
// goroutines. The engine turns that constraint into the scaling story
// used by production deployments of bounded-deletion sketches (e.g. the
// SpaceSaving± line of work): it owns S single-writer shards, one
// goroutine each, hash-partitions incoming batches across them with the
// library's fast-range hash, and answers queries from merged snapshots.
//
//	              Ingest(batch)
//	                   │ plan: one batch hash evaluation computes every
//	                   │ update's shard; scatter indices+deltas by column
//	   ┌───────────────┼───────────────┐
//	[shard 0]       [shard 1]  ...  [shard S-1]   bounded channels of
//	goroutine        goroutine       goroutine    columnar batches,
//	   │                │                │        blocking = backpressure
//	sketches         sketches        sketches     same Config ⇒ same seed
//	   │  └──────── clone(kind) ∘ merge ──────┘
//	   │                │
//	   │            global Query (HeavyHitters, L1, L0, Sample, ...)
//	   └─ routed Query (Estimate, EstimateBatch, Probe, ProbeBatch,
//	      Support): answered by the OWNING shard(s), snapshot-free — no
//	      flush barrier, no merged-view rebuild. All five run one
//	      sequence (routedRead); the batched ones mirror Ingest: one
//	      hash evaluation computes every queried index's shard, columns
//	      scatter, shards answer concurrently, results reassemble in
//	      input order.
//
// Each shard goroutine receives ready-to-apply column batches and fans
// them to its structures' UpdateColumns — the plan → hash → apply
// pipeline runs end to end without re-deriving an index per item.
//
// Correctness rests on three properties the library guarantees:
//
//  1. Mergeability: all shards build their structures from the SAME
//     Config, so hash functions agree and two instances combine by
//     coordinate-wise addition (Merge). A merged snapshot answers for
//     the whole stream; in the sketches' exact regimes the answer is
//     identical to a single-writer structure fed the same updates.
//  2. Snapshot isolation: clones are taken — and a one-shard engine's
//     global queries run — inside each shard's goroutine (serialized
//     with its ingest), so queries never race updates; -race clean with
//     any number of producers.
//  3. Partition completeness: the fast-range partition hash routes
//     EVERY update for an index to one shard, so that shard's live
//     structure alone answers point queries for the index — in the
//     sketches' exact regimes identically to a single-writer structure
//     fed that shard's substream, and generally with LESS collision
//     noise than a merged table.
//
// Choose the engine over direct bounded.* use when ingest throughput is
// the bottleneck and multiple cores (or multiple producer goroutines)
// are available; stay with a direct structure when a single goroutine
// can keep up — with S > 1 shards a global merged query costs S copies
// plus S-1 merges of the ONE structure it asks for when the
// generation-tagged view cache holds no row of that kind yet, the copies
// written into the storage of that kind's last build (point queries
// never pay that; they serialize only with the owning shard's ingest).
//
// # Shipping state
//
// Snapshot(kind) marshals ONE structure's merged state in the library
// wire format; the sketches are linear, so the receiving side is
// bounded.UnmarshalSketch + Merge (what the networked aggregator does).
// SnapshotPartitioned serializes every shard's live structures in
// place (no merge) under a versioned envelope carrying the shard
// count, Config echo (its Seed fixes the partition hash), structure
// set, and generation. RestorePartitioned installs that state shard-for-shard
// into a pristine engine with the same Config and topology, so routed
// reads keep working (SnapshotBuilds stays 0). Sketch state cannot be
// re-keyed: a snapshot from a different shard count is an error, to be
// opened with its own topology — RestoreCheckpoint and OpenCheckpoint
// fill zero Options.Shards/Structures from the snapshot header.
// Checkpoint and OpenCheckpoint put those snapshots through
// internal/ckpt's CRC-guarded atomic store, so a process can restart
// from disk without replaying its stream.
package engine
