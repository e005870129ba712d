package netagg

import (
	"errors"
	"fmt"
	"sort"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/ckpt"
	"repro/internal/wire"
)

// Aggregator checkpoint state format ("AG"): the aggregator's entire
// per-agent table — each agent's latest committed sketch blobs plus the
// seq/gen watermarks — serialized deterministically (agents sorted by
// ID, blobs by ascending structure bit). Restoring it on restart is
// what lets the aggregator answer queries from disk immediately AND
// hand every reconnecting agent its true LastSeq, so a live agent sees
// its own watermark in the WELCOME and keeps syncing incrementally
// instead of force-resending its full state.
const (
	aggStateMagic   = "AG"
	aggStateVersion = 1
)

// aggAgentRow is one agent's state captured under a.mu for
// checkpointing. The kind map is safe to marshal outside the lock:
// commits replace it and never write a stored sketch, and a set the
// capture holds is not recycled until the capture is released.
type aggAgentRow struct {
	id           string
	seq, gen     uint64
	lastSyncNano int64
	snapshots    int64
	sketches     map[engine.Structures]bounded.Sketch
}

// marshalAggState serializes captured rows into an "AG" payload.
func marshalAggState(cfg bounded.Config, accept engine.Structures, rows []aggAgentRow) ([]byte, error) {
	w := wire.NewWriter(aggStateMagic, aggStateVersion)
	w.U64(cfg.N)
	w.F64(cfg.Eps)
	w.F64(cfg.Alpha)
	w.I64(cfg.Seed)
	w.U32(uint32(accept))
	w.U32(uint32(len(rows)))
	for _, row := range rows {
		w.Bytes32([]byte(row.id))
		w.U64(row.seq)
		w.U64(row.gen)
		w.I64(row.lastSyncNano)
		w.I64(row.snapshots)
		var held engine.Structures
		for bit := range row.sketches {
			held |= bit
		}
		var blobs []wire.Blob
		for _, bit := range held.Bits() {
			payload, err := row.sketches[bit].MarshalBinary()
			if err != nil {
				return nil, fmt.Errorf("netagg: checkpoint marshaling agent %q %s: %w", row.id, bit, err)
			}
			blobs = append(blobs, wire.Blob{Bit: uint32(bit), Payload: payload})
		}
		w.Blobs(blobs)
	}
	return w.Bytes(), nil
}

// unmarshalAggState decodes an "AG" payload, admitting every blob
// through engine.DecodeBlobs (cfg's echo, the file's accept mask)
// before returning. All-or-nothing: a payload with any malformed or
// mismatched blob restores no agents.
func unmarshalAggState(data []byte, cfg bounded.Config, accept engine.Structures) ([]aggAgentRow, error) {
	r, version, err := wire.NewReader(data, aggStateMagic)
	if err != nil {
		return nil, fmt.Errorf("netagg: checkpoint state: %w", err)
	}
	if version != aggStateVersion {
		return nil, fmt.Errorf("netagg: checkpoint state version %d, want %d", version, aggStateVersion)
	}
	fileCfg := bounded.Config{N: r.U64(), Eps: r.F64(), Alpha: r.F64(), Seed: r.I64()}
	fileAccept := engine.Structures(r.U32())
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("netagg: checkpoint state: %w", err)
	}
	if fileCfg != cfg {
		return nil, fmt.Errorf("netagg: checkpoint config %+v does not match aggregator config %+v", fileCfg, cfg)
	}
	if extra := fileAccept &^ accept; extra != 0 {
		return nil, fmt.Errorf("netagg: checkpoint holds structures %s the aggregator no longer accepts (accepts %s)",
			fileAccept, accept)
	}
	// Each agent row costs at least 40 encoded bytes; a count that
	// cannot fit in the remaining payload is forged.
	if n < 0 || n*40 > r.Remaining()+40 {
		return nil, fmt.Errorf("netagg: checkpoint claims %d agents in %d bytes", n, r.Remaining())
	}
	rows := make([]aggAgentRow, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		row := aggAgentRow{
			id:           string(r.Bytes32()),
			seq:          r.U64(),
			gen:          r.U64(),
			lastSyncNano: r.I64(),
			snapshots:    r.I64(),
			sketches:     make(map[engine.Structures]bounded.Sketch),
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("netagg: checkpoint agent %d: %w", i, err)
		}
		if row.id == "" {
			return nil, fmt.Errorf("netagg: checkpoint agent %d has empty id", i)
		}
		if seen[row.id] {
			return nil, fmt.Errorf("netagg: checkpoint repeats agent %q", row.id)
		}
		seen[row.id] = true
		blobs := r.Blobs()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("netagg: checkpoint agent %q blobs: %w", row.id, err)
		}
		sks, err := engine.DecodeBlobs(blobs, fileAccept, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("netagg: checkpoint agent %q: %w", row.id, err)
		}
		for j, b := range blobs {
			// Ascending bits is the canonical order marshalAggState writes.
			if j > 0 && b.Bit <= blobs[j-1].Bit {
				return nil, fmt.Errorf("netagg: checkpoint agent %q blobs out of order at %s", row.id, engine.Structures(b.Bit))
			}
			row.sketches[engine.Structures(b.Bit)] = sks[j]
		}
		rows = append(rows, row)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("netagg: checkpoint state: %w", err)
	}
	return rows, nil
}

// openCheckpoint opens the store and recovers the agent table, each
// row through the commit step a live snapshot takes (commitLocked): a
// checkpoint whose agents do not combine fails as a whole, like a
// malformed one. Called from NewAggregator before Serve, so the table
// is written lock-free.
func (a *Aggregator) openCheckpoint() error {
	store, err := ckpt.Open(a.opt.CheckpointDir, ckpt.Options{Keep: a.opt.CheckpointKeep})
	if err != nil {
		return fmt.Errorf("netagg: aggregator checkpoint dir: %w", err)
	}
	a.store = store
	payload, _, err := store.Load()
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil // cold start
	}
	if err != nil {
		return fmt.Errorf("netagg: aggregator loading checkpoint: %w", err)
	}
	rows, err := unmarshalAggState(payload, a.opt.Config, a.opt.Structures)
	if err != nil {
		return err
	}
	for _, row := range rows {
		st, _, err := a.commitLocked(row.id, row.sketches, row.seq, row.gen)
		if err != nil {
			return fmt.Errorf("netagg: checkpoint agent %q: %w", row.id, err)
		}
		st.lastSyncUnixNano.Store(row.lastSyncNano)
		st.snapshots.Store(row.snapshots)
	}
	if len(rows) > 0 {
		a.stateVersion++ // recovered state is a new version to checkpoint loops
	}
	a.recoveredAgents.Add(int64(len(rows)))
	a.ckptVersion = a.stateVersion // the state on disk IS this version
	return nil
}

// checkpointLoop writes a checkpoint every CheckpointEvery while the
// committed state keeps moving; unchanged state writes nothing.
func (a *Aggregator) checkpointLoop() {
	defer close(a.ckptDone)
	ticker := time.NewTicker(a.opt.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-a.ckptStop:
			return
		case <-ticker.C:
			if err := a.Checkpoint(); err != nil {
				a.opt.Logf("netagg: aggregator checkpoint: %v", err)
			}
		}
	}
}

// Checkpoint writes the current committed agent table to the
// checkpoint directory now, skipping the write when nothing moved
// since the last one. It errors if the aggregator was built without
// CheckpointDir. Safe to call concurrently with serving; the capture
// is one critical section and the (dominant) marshal+fsync runs
// outside it.
func (a *Aggregator) Checkpoint() error {
	if a.store == nil {
		return errors.New("netagg: aggregator has no checkpoint directory")
	}
	a.mu.Lock()
	version := a.stateVersion
	if version == a.ckptVersion && a.store.LatestSeq() > 0 {
		a.mu.Unlock()
		return nil
	}
	// Nothing writes a stored set (a commit REPLACES the map), and one a
	// commit retires is not recycled while a reader holds it
	// (retireLocked), so capturing the maps under the lock, as a reader,
	// licenses marshaling them outside it.
	rows := make([]aggAgentRow, 0, len(a.agents))
	for id, st := range a.agents {
		rows = append(rows, aggAgentRow{
			id:           id,
			seq:          st.seq,
			gen:          st.gen,
			lastSyncNano: st.lastSyncUnixNano.Load(),
			snapshots:    st.snapshots.Load(),
			sketches:     st.sketches,
		})
	}
	a.readers++
	a.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	payload, err := marshalAggState(a.opt.Config, a.opt.Structures, rows)
	a.release()
	if err != nil {
		return err
	}
	if _, err := a.store.Save(payload); err != nil {
		return fmt.Errorf("netagg: aggregator checkpoint save: %w", err)
	}
	a.checkpointsWritten.Add(1)
	a.mu.Lock()
	if a.ckptVersion < version {
		a.ckptVersion = version
	}
	a.mu.Unlock()
	return nil
}

// Checkpoint writes the agent's engine state to its checkpoint
// directory now, skipping the write when the engine generation has not
// moved since the last one. It errors if the agent was built without
// CheckpointDir.
func (a *Agent) Checkpoint() error {
	if a.store == nil {
		return errors.New("netagg: agent has no checkpoint directory")
	}
	a.ckptMu.Lock()
	defer a.ckptMu.Unlock()
	// Read the generation BEFORE snapshotting (same discipline as
	// Sync): a concurrent Ingest in between makes the written state
	// newer than the recorded gen, which only causes one harmless
	// rewrite next tick — never a skipped update.
	gen := int64(a.eng.Generation())
	if gen == a.lastCkptGen && a.store.LatestSeq() > 0 {
		return nil
	}
	if _, err := a.eng.CheckpointTo(a.store); err != nil {
		return fmt.Errorf("netagg: agent %s checkpoint: %w", a.opt.ID, err)
	}
	a.lastCkptGen = gen
	a.checkpointsWritten.Add(1)
	return nil
}

// loadCheckpoint opens the agent's store and returns the newest
// checkpoint payload (nil on a cold start). Called from NewAgent BEFORE
// the engine is built: when Engine.Shards is zero ("one per CPU") the
// agent adopts the checkpoint's shard count — the fill rule
// engine.RestoreCheckpoint applies — so a restart under a different
// GOMAXPROCS reopens the topology the state was partitioned for instead
// of failing the restore.
func (a *Agent) loadCheckpoint() ([]byte, error) {
	store, err := ckpt.Open(a.opt.CheckpointDir, ckpt.Options{})
	if err != nil {
		return nil, fmt.Errorf("netagg: agent %s checkpoint dir: %w", a.opt.ID, err)
	}
	a.store = store
	payload, _, err := store.Load()
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil, nil // cold start
	}
	if err != nil {
		return nil, fmt.Errorf("netagg: agent %s loading checkpoint: %w", a.opt.ID, err)
	}
	if a.opt.Engine.Shards <= 0 {
		var ps wire.PartSnapshot
		if err := ps.UnmarshalBinary(payload); err != nil {
			return nil, fmt.Errorf("netagg: agent %s loading checkpoint: %w", a.opt.ID, err)
		}
		a.opt.Engine.Shards = int(ps.Header.Shards)
	}
	return payload, nil
}
