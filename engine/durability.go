// durability.go is the engine's partitioned-snapshot and checkpoint
// layer. Where Snapshot ships ONE merged structure for an
// UnmarshalSketch + Merge consumer, SnapshotPartitioned and
// RestorePartitioned ship the whole sharded state with the partition
// preserved: each shard's goroutine marshals its own live structures,
// and a restoring engine with the same topology installs them
// shard-for-shard — routed reads keep working and no merged view is
// ever built. Checkpoint/OpenCheckpoint put that format on disk through
// internal/ckpt's crash-safe store.
package engine

import (
	"fmt"

	bounded "repro"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/wire"
)

// marshalBlobs serializes every enabled structure into bit-tagged wire
// blobs, ascending bit order. It runs inside the shard goroutine
// (serialized with the shard's ingest), so it reads consistent state
// without cloning.
func (s structSet) marshalBlobs() ([]wire.Blob, error) {
	var blobs []wire.Blob
	for i, sk := range s {
		if sk == nil {
			continue
		}
		payload, err := sk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, wire.Blob{Bit: uint32(kinds[i].bit), Payload: payload})
	}
	return blobs, nil
}

// SnapshotPartitioned serializes the engine's WHOLE sharded state with
// the partition preserved: a topology header (shard count, Config echo
// — its Seed fixes the partition hash — structure set, generation)
// followed by one blob
// list per shard, each marshaled inside its own shard goroutine — no
// merged view is built and SnapshotBuilds does not advance. Feed the
// bytes to RestorePartitioned on a peer (or back through
// Checkpoint/OpenCheckpoint via disk): a peer with the same topology
// restores shard-for-shard and keeps routed reads; any other topology
// is refused (open the bytes with RestoreCheckpoint(payload,
// Options{}) instead). For a single structure to ship to an
// UnmarshalSketch + Merge consumer, use Snapshot.
func (e *Engine) SnapshotPartitioned() ([]byte, error) {
	start := obs.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, fmt.Errorf("engine: SnapshotPartitioned on closed engine")
	}
	e.flushLocked()
	genAt := e.gen.Load()
	shards := make([][]wire.Blob, len(e.workers))
	errs := make([]error, len(e.workers))
	e.eachShard(func(s int) { shards[s], errs[s] = e.sets[s].marshalBlobs() })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ps := &wire.PartSnapshot{
		Header: wire.PartHeader{
			Shards:     uint32(e.opt.Shards),
			N:          e.cfg.N,
			Eps:        e.cfg.Eps,
			Alpha:      e.cfg.Alpha,
			Seed:       e.cfg.Seed,
			Structures: uint32(e.opt.Structures),
			Generation: genAt,
		},
		Shards: shards,
	}
	out, err := ps.MarshalBinary()
	if err != nil {
		return nil, err
	}
	e.met.partSnapshots.Inc()
	e.met.partSnapNanos.ObserveSince(start)
	return out, nil
}

// RestorePartitioned loads a SnapshotPartitioned image into a PRISTINE
// engine (no Ingest and no RestorePartitioned yet — Generation() == 0);
// anything else errors, because a partitioned install replaces shard
// state rather than merging into it. The engine's Config must equal the
// snapshot's echoed Config exactly (which fixes the partition hash),
// its shard count must equal the snapshot's, the snapshot's structure
// set must be a subset of the engine's (extra engine structures stay
// empty), and every blob must have been built with the engine's
// options (bounded.Compatible with the engine's own structure), so
// every later merge of the shards succeeds.
//
// Each shard's payloads are installed into that shard's live
// structures, inside its goroutine. The engine is then bit-identical
// to the producer — routed reads keep answering from owning shards and
// Stats().SnapshotBuilds stays 0. Sketch state cannot be decomposed
// back into per-key updates, so a snapshot cannot be re-keyed onto a
// different shard count: that is an error here, and the way to open
// such a snapshot is with its own topology, which
// RestoreCheckpoint(payload, Options{}) adopts from the header.
//
// Validation is all-or-nothing: every blob is decoded and checked
// (Config echo, tag/kind agreement, per-shard completeness) before any
// shard is touched, so a failed restore leaves the engine unchanged
// and still pristine.
func (e *Engine) RestorePartitioned(data []byte) error {
	start := obs.Now()
	var ps wire.PartSnapshot
	if err := ps.UnmarshalBinary(data); err != nil {
		return err
	}
	hdr := ps.Header
	snapCfg := bounded.Config{N: hdr.N, Eps: hdr.Eps, Alpha: hdr.Alpha, Seed: hdr.Seed}
	snapStructs := Structures(hdr.Structures)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("engine: RestorePartitioned on closed engine")
	}
	if e.gen.Load() != 0 {
		return fmt.Errorf("engine: RestorePartitioned requires a pristine engine (generation 0: no Ingest and no RestorePartitioned yet)")
	}
	if snapCfg != e.cfg {
		return fmt.Errorf("engine: partitioned snapshot Config %+v does not match engine Config %+v", snapCfg, e.cfg)
	}
	if int(hdr.Shards) != e.opt.Shards {
		return fmt.Errorf("engine: partitioned snapshot was taken at %d shards, engine has %d; sketch state cannot be re-keyed — open it with its own topology via RestoreCheckpoint(payload, Options{})",
			hdr.Shards, e.opt.Shards)
	}
	if snapStructs == 0 {
		return fmt.Errorf("engine: partitioned snapshot with empty structure set")
	}
	if extra := snapStructs &^ e.opt.Structures; extra != 0 {
		return fmt.Errorf("engine: partitioned snapshot carries structures %s the engine does not enable", extra)
	}

	// Decode and validate EVERYTHING before touching any shard.
	decoded := make([]structSet, len(ps.Shards))
	for si, blobs := range ps.Shards {
		sks, err := DecodeBlobs(blobs, snapStructs, e.cfg, nil)
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", si, err)
		}
		set := make(structSet, len(kinds))
		var seen Structures
		for j, b := range blobs {
			bit := Structures(b.Bit)
			row, _ := bit.row()
			if err := bounded.Compatible(e.sets[0][row], sks[j]); err != nil {
				return fmt.Errorf("engine: shard %d: structure %s: %w", si, bit, err)
			}
			set[row] = sks[j]
			seen |= bit
		}
		if seen != snapStructs {
			return fmt.Errorf("engine: shard %d carries structures %s, header promises %s", si, seen, snapStructs)
		}
		decoded[si] = set
	}

	// Install shard-for-shard inside each shard's goroutine: the worker
	// ingests through the same structSet, so the swap is serialized with
	// ingest like any other shard mutation.
	e.eachShard(func(s int) {
		for row, sk := range decoded[s] {
			if sk != nil {
				e.sets[s][row] = sk
			}
		}
		applyShard{e, s}.publish()
	})
	e.gen.Add(1)
	e.met.partRestores.Inc()
	e.met.partRestoreNanos.ObserveSince(start)
	return nil
}

// Checkpoint writes the engine's partitioned snapshot to a crash-safe
// on-disk checkpoint store rooted at dir (created if needed), pruning
// to the store's default retention. Use CheckpointTo with a long-lived
// ckpt.Store to control retention, amortize the directory scan, and
// expose the store's metrics.
func (e *Engine) Checkpoint(dir string) error {
	store, err := ckpt.Open(dir, ckpt.Options{})
	if err != nil {
		return err
	}
	_, err = e.CheckpointTo(store)
	return err
}

// CheckpointTo writes the engine's partitioned snapshot as the store's
// next checkpoint and returns its sequence number.
func (e *Engine) CheckpointTo(store *ckpt.Store) (uint64, error) {
	snap, err := e.SnapshotPartitioned()
	if err != nil {
		return 0, err
	}
	return store.Save(snap)
}

// OpenCheckpoint recovers an engine from the newest valid checkpoint in
// dir: Config comes from the checkpoint header; zero fields of opts
// (Shards, Structures) are filled from the header too, so the default
// recovery — OpenCheckpoint(dir, engine.Options{}) — reproduces the
// producing topology exactly and restores shard-for-shard with routed
// reads intact. An explicit Shards that differs from the checkpoint's
// is RestorePartitioned's topology error. ckpt.ErrNoCheckpoint when
// dir holds nothing valid.
func OpenCheckpoint(dir string, opts Options) (*Engine, error) {
	store, err := ckpt.Open(dir, ckpt.Options{})
	if err != nil {
		return nil, err
	}
	payload, _, err := store.Load()
	if err != nil {
		return nil, err
	}
	return RestoreCheckpoint(payload, opts)
}

// RestoreCheckpoint builds an engine from SnapshotPartitioned bytes —
// OpenCheckpoint without the disk. Zero opts fields are filled from
// the snapshot header exactly as OpenCheckpoint fills them.
func RestoreCheckpoint(payload []byte, opts Options) (*Engine, error) {
	var ps wire.PartSnapshot
	if err := ps.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	cfg := bounded.Config{N: ps.Header.N, Eps: ps.Header.Eps, Alpha: ps.Header.Alpha, Seed: ps.Header.Seed}
	if opts.Shards == 0 {
		opts.Shards = int(ps.Header.Shards)
	}
	if opts.Structures == 0 {
		opts.Structures = Structures(ps.Header.Structures)
	}
	e, err := New(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := e.RestorePartitioned(payload); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}
