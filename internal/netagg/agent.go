package netagg

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/ckpt"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/wire"
)

// AgentOptions configures an Agent.
type AgentOptions struct {
	// ID names this site; the aggregator keys committed state by it, so
	// it must be unique per site and stable across restarts. Required.
	ID string
	// Aggregator is the TCP address to ship snapshots to. Required.
	Aggregator string
	// Config is the sketch parameterization; it must equal the
	// aggregator's exactly.
	Config bounded.Config
	// Engine configures the local ingest engine (shard count, structure
	// set, queue depths). Engine.Structures decides what the agent
	// ships.
	Engine engine.Options
	// SyncInterval paces Run's snapshot ticks (default 500ms).
	SyncInterval time.Duration
	// IOTimeout bounds each frame write and each ACK/WELCOME read
	// (default 5s).
	IOTimeout time.Duration
	// BackoffMin and BackoffMax bound the reconnect backoff: the delay
	// starts at BackoffMin and doubles per consecutive failure up to
	// BackoffMax (defaults 100ms and 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// CheckpointDir, when set, makes the agent durable: the engine is
	// checkpointed to this directory and restored on construction, so
	// a restarted agent resumes without replaying its stream.
	CheckpointDir string
	// CheckpointEvery paces checkpoint writes inside Run (default 1s).
	// Ticks where the engine generation did not move write nothing.
	CheckpointEvery time.Duration
	// Logf receives sync-lifecycle diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

func (o *AgentOptions) fill() {
	if o.SyncInterval == 0 {
		o.SyncInterval = 500 * time.Millisecond
	}
	if o.IOTimeout == 0 {
		o.IOTimeout = 5 * time.Second
	}
	if o.BackoffMin == 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = time.Second
	}
	o.Logf = logfOr(o.Logf)
}

// AgentStats is a point-in-time snapshot of the agent's sync counters
// — plain atomics, exact in every build flavor, so tests assert the
// incremental-sync contract (SnapshotsSkipped moves, FramesOut does
// not) directly against them.
type AgentStats struct {
	// SnapshotsSent counts ACKed snapshot pushes; SnapshotsSkipped
	// counts sync ticks that shipped nothing because the engine
	// generation had not moved since the last ACK.
	SnapshotsSent, SnapshotsSkipped int64
	SketchesSent                    int64
	FramesOut, FramesIn             int64
	BytesOut, BytesIn               int64
	Dials, DialFailures             int64
	// Reconnects counts established connections that died and were
	// later re-dialed (Dials - 1 - DialFailures, tracked directly).
	Reconnects   int64
	SyncFailures int64
	AcksReceived int64
	// CheckpointsWritten counts engine checkpoints actually written
	// (unchanged-generation ticks are not counted).
	CheckpointsWritten int64
	// FleetExponent is the exponent P the last ACK carried: the CSSS
	// exponent of the aggregator's heavy-hitters union, to which the
	// agent has thinned its own heavy-hitters tables.
	FleetExponent int
}

// Agent is one monitored site: a local sharded engine fed by Ingest,
// and a sync loop that ships the engine's merged state to the
// aggregator only when the engine generation moved since the last
// ACKed snapshot.
//
// Concurrency: Ingest is safe from any goroutine (the engine
// serializes). Sync/Run serialize against each other internally;
// connection state is only touched with syncMu held.
type Agent struct {
	opt AgentOptions
	eng *engine.Engine

	// syncMu serializes sync attempts and guards every field below.
	syncMu        sync.Mutex
	conn          net.Conn
	mr            *netproto.MessageReader
	mw            *netproto.MessageWriter
	everConnected bool
	seq           uint64 // last Snapshot.Seq sent (monotonic across conns)
	lastAckedSeq  uint64
	lastAckedGen  int64 // engine generation at last ACK; -1 = none
	backoff       time.Duration
	nextDialAt    time.Time

	closed atomic.Bool

	// Durability (checkpoint.go). ckptMu serializes checkpoint writes;
	// lastCkptGen is the engine generation the newest checkpoint was
	// captured at (guarded by ckptMu).
	store        *ckpt.Store
	ckptMu       sync.Mutex
	lastCkptGen  int64
	restoredCkpt bool

	snapshotsSent, snapshotsSkipped atomic.Int64
	sketchesSent                    atomic.Int64
	framesOut, framesIn             atomic.Int64
	bytesOut, bytesIn               atomic.Int64
	dials, dialFailures             atomic.Int64
	reconnects                      atomic.Int64
	syncFailures                    atomic.Int64
	acksReceived                    atomic.Int64
	checkpointsWritten              atomic.Int64
	fleetExponent                   atomic.Int64
	syncNanos                       obs.Histogram
}

// NewAgent builds the agent and its local engine, restoring the engine
// from CheckpointDir's newest checkpoint when there is one: the
// checkpoint must echo opt.Config, and an explicit Engine.Shards must
// equal the checkpoint's shard count (zero adopts it). Close releases
// the engine's shard goroutines.
func NewAgent(opt AgentOptions) (*Agent, error) {
	if opt.ID == "" {
		return nil, errors.New("netagg: AgentOptions.ID is required")
	}
	if opt.Aggregator == "" {
		return nil, errors.New("netagg: AgentOptions.Aggregator is required")
	}
	opt.fill()
	a := &Agent{opt: opt, lastAckedGen: -1, lastCkptGen: -1}
	var payload []byte
	if opt.CheckpointDir != "" {
		var err error
		if payload, err = a.loadCheckpoint(); err != nil {
			return nil, err
		}
	}
	eng, err := engine.New(a.opt.Config, a.opt.Engine)
	if err != nil {
		return nil, fmt.Errorf("netagg: agent engine: %w", err)
	}
	a.eng = eng
	if payload != nil {
		// The restart-without-replay path: the engine is still pristine.
		if err := eng.RestorePartitioned(payload); err != nil {
			eng.Close()
			return nil, fmt.Errorf("netagg: agent %s restoring checkpoint: %w", a.opt.ID, err)
		}
		a.lastCkptGen = int64(eng.Generation())
		a.restoredCkpt = true
	}
	return a, nil
}

// RestoredFromCheckpoint reports whether NewAgent resumed the engine
// from an on-disk checkpoint rather than starting cold.
func (a *Agent) RestoredFromCheckpoint() bool { return a.restoredCkpt }

// Engine exposes the local engine for direct queries and stats.
func (a *Agent) Engine() *engine.Engine { return a.eng }

// Ingest feeds local stream updates into the site engine.
func (a *Agent) Ingest(batch []bounded.Update) error { return a.eng.Ingest(batch) }

// Run drives the periodic sync loop until ctx is done, then makes
// one final best-effort sync so state ingested just before shutdown
// still reaches the aggregator. Sync errors are logged and retried on
// the next tick (with dial backoff applied underneath); Run only
// returns ctx.Err()'s cause, never a transient sync error.
func (a *Agent) Run(ctx context.Context) error {
	ticker := time.NewTicker(a.opt.SyncInterval)
	defer ticker.Stop()
	var nextCkpt time.Time
	if a.store != nil {
		nextCkpt = time.Now().Add(a.opt.CheckpointEvery)
	}
	for {
		select {
		case <-ctx.Done():
			// Final flush outside the canceled context: bounded by
			// IOTimeout, not by ctx.
			if err := a.Sync(context.Background()); err != nil {
				a.opt.Logf("netagg: agent %s final sync: %v", a.opt.ID, err)
			}
			if a.store != nil {
				if err := a.Checkpoint(); err != nil {
					a.opt.Logf("netagg: agent %s final checkpoint: %v", a.opt.ID, err)
				}
			}
			return context.Cause(ctx)
		case <-ticker.C:
			if err := a.Sync(ctx); err != nil && ctx.Err() == nil {
				a.opt.Logf("netagg: agent %s sync: %v", a.opt.ID, err)
			}
			if a.store != nil && !time.Now().Before(nextCkpt) {
				if err := a.Checkpoint(); err != nil && ctx.Err() == nil {
					a.opt.Logf("netagg: agent %s checkpoint: %v", a.opt.ID, err)
				}
				nextCkpt = time.Now().Add(a.opt.CheckpointEvery)
			}
		}
	}
}

// Sync performs one snapshot cycle now: connect (respecting backoff)
// if needed, skip if the engine generation is unchanged since the last
// ACK, otherwise marshal every enabled structure, push, and await the
// ACK. Safe to call concurrently with Run; attempts serialize.
func (a *Agent) Sync(ctx context.Context) error {
	a.syncMu.Lock()
	defer a.syncMu.Unlock()
	if a.closed.Load() {
		return errors.New("netagg: agent is closed")
	}
	if err := a.ensureConn(ctx); err != nil {
		a.syncFailures.Add(1)
		return err
	}

	// Read the generation BEFORE marshaling: a concurrent Ingest
	// between this load and the Snapshot calls makes the shipped state
	// newer than the recorded gen, which only causes a harmless
	// idempotent resend next tick — never a skipped update.
	gen := a.eng.Generation()
	if int64(gen) == a.lastAckedGen {
		a.snapshotsSkipped.Add(1)
		return nil
	}

	start := obs.Now()
	bits := a.eng.Structures().Bits()
	blobs := make([]wire.Blob, 0, len(bits))
	for _, bit := range bits {
		payload, err := a.eng.Snapshot(bit)
		if err != nil {
			a.syncFailures.Add(1)
			return fmt.Errorf("netagg: agent %s marshaling %s: %w", a.opt.ID, bit, err)
		}
		blobs = append(blobs, wire.Blob{Bit: uint32(bit), Payload: payload})
	}

	a.seq++
	msg := &netproto.Snapshot{Seq: a.seq, Gen: gen, Sketches: blobs}
	a.conn.SetWriteDeadline(deadline(a.opt.IOTimeout))
	if err := a.mw.Write(msg); err != nil {
		a.syncFailures.Add(1)
		a.dropConnLocked()
		return fmt.Errorf("netagg: agent %s pushing snapshot %d: %w", a.opt.ID, msg.Seq, err)
	}
	a.framesOut.Add(1)

	a.conn.SetReadDeadline(deadline(a.opt.IOTimeout))
	reply, err := a.mr.Next()
	if err != nil {
		a.syncFailures.Add(1)
		a.dropConnLocked()
		return fmt.Errorf("netagg: agent %s awaiting ack %d: %w", a.opt.ID, msg.Seq, err)
	}
	a.framesIn.Add(1)
	var exp int
	switch r := reply.(type) {
	case *netproto.Ack:
		if r.Seq != msg.Seq {
			a.syncFailures.Add(1)
			a.dropConnLocked()
			return fmt.Errorf("netagg: agent %s: ack for seq %d, want %d", a.opt.ID, r.Seq, msg.Seq)
		}
		exp = int(r.Exponent)
	case *netproto.Error:
		a.syncFailures.Add(1)
		a.dropConnLocked()
		return fmt.Errorf("netagg: agent %s: aggregator refused snapshot: %s", a.opt.ID, r.Msg)
	default:
		a.syncFailures.Add(1)
		a.dropConnLocked()
		return fmt.Errorf("netagg: agent %s: expected ACK, got %s", a.opt.ID, reply.Kind())
	}

	a.lastAckedSeq = msg.Seq
	a.lastAckedGen = int64(gen)
	a.acksReceived.Add(1)
	a.snapshotsSent.Add(1)
	a.sketchesSent.Add(int64(len(blobs)))
	a.adoptExponent(exp)
	a.syncNanos.ObserveSince(start)
	return nil
}

// adoptExponent takes the union's exponent from an ACK: the local
// heavy-hitters tables thin to it (a no-op when they are there), so
// the aggregator's next rebuilds add this agent's table at the union's
// rate instead of thinning a copy of it every time. A thinning moves
// the engine generation, so the next sync ships the aligned state.
// Correctness never depends on it — Merge aligns whatever it is given
// — so a failure is logged, not returned.
func (a *Agent) adoptExponent(p int) {
	a.fleetExponent.Store(int64(p))
	if err := a.eng.RaiseSampleExponent(p); err != nil {
		a.opt.Logf("netagg: agent %s adopting fleet exponent %d: %v", a.opt.ID, p, err)
	}
}

// ensureConn dials and handshakes when no connection is live,
// respecting the backoff gate. Caller holds syncMu.
func (a *Agent) ensureConn(ctx context.Context) error {
	if a.conn != nil {
		return nil
	}
	if wait := time.Until(a.nextDialAt); wait > 0 {
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(wait):
		}
	}
	a.dials.Add(1)
	conn, err := net.DialTimeout("tcp", a.opt.Aggregator, dialTimeout)
	if err != nil {
		a.dialFailures.Add(1)
		a.bumpBackoffLocked()
		return fmt.Errorf("netagg: agent %s dialing %s: %w", a.opt.ID, a.opt.Aggregator, err)
	}
	cc := &countingConn{Conn: conn, in: &a.bytesIn, out: &a.bytesOut}
	mr := netproto.NewMessageReader(cc, netproto.DefaultMaxFrame)
	mw := netproto.NewMessageWriter(cc)

	hello := &netproto.Hello{
		Role:       netproto.RoleAgent,
		Agent:      a.opt.ID,
		MinVersion: netproto.VersionMin,
		MaxVersion: netproto.VersionMax,
		Config:     configEcho(a.opt.Config),
		Structures: uint32(a.eng.Structures()),
		Shards:     uint32(a.eng.Shards()),
	}
	conn.SetWriteDeadline(deadline(a.opt.IOTimeout))
	err = mw.Write(hello)
	if err == nil {
		a.framesOut.Add(1)
		conn.SetReadDeadline(deadline(a.opt.IOTimeout))
		var reply netproto.Msg
		if reply, err = mr.Next(); err == nil {
			a.framesIn.Add(1)
			switch r := reply.(type) {
			case *netproto.Welcome:
				if r.LastSeq != a.lastAckedSeq {
					// The aggregator's committed state for us is not
					// what we last ACKed — it restarted (LastSeq 0) or
					// lost our tail. Force a full resend and keep our
					// seq counter above whatever it has.
					a.opt.Logf("netagg: agent %s: aggregator holds seq %d, we acked %d; forcing full resend",
						a.opt.ID, r.LastSeq, a.lastAckedSeq)
					a.lastAckedGen = -1
					if r.LastSeq > a.seq {
						a.seq = r.LastSeq
					}
				}
			case *netproto.Error:
				err = fmt.Errorf("netagg: agent %s refused: %s", a.opt.ID, r.Msg)
			default:
				err = fmt.Errorf("netagg: agent %s: expected WELCOME, got %s", a.opt.ID, reply.Kind())
			}
		}
	}
	if err != nil {
		conn.Close()
		a.bumpBackoffLocked()
		return err
	}

	if a.everConnected {
		a.reconnects.Add(1)
	}
	a.everConnected = true
	a.conn, a.mr, a.mw = conn, mr, mw
	a.backoff = 0
	a.nextDialAt = time.Time{}
	return nil
}

// dropConnLocked tears down the live connection after an I/O failure
// and arms the backoff gate. Caller holds syncMu.
func (a *Agent) dropConnLocked() {
	if a.conn != nil {
		a.conn.Close()
		a.conn, a.mr, a.mw = nil, nil, nil
	}
	a.bumpBackoffLocked()
}

// bumpBackoffLocked doubles the reconnect delay (from BackoffMin up to
// BackoffMax) and sets the earliest next dial time. Caller holds
// syncMu.
func (a *Agent) bumpBackoffLocked() {
	if a.backoff == 0 {
		a.backoff = a.opt.BackoffMin
	} else {
		a.backoff *= 2
		if a.backoff > a.opt.BackoffMax {
			a.backoff = a.opt.BackoffMax
		}
	}
	a.nextDialAt = time.Now().Add(a.backoff)
}

// Stats snapshots the agent's sync counters.
func (a *Agent) Stats() AgentStats {
	return AgentStats{
		SnapshotsSent:      a.snapshotsSent.Load(),
		SnapshotsSkipped:   a.snapshotsSkipped.Load(),
		SketchesSent:       a.sketchesSent.Load(),
		FramesOut:          a.framesOut.Load(),
		FramesIn:           a.framesIn.Load(),
		BytesOut:           a.bytesOut.Load(),
		BytesIn:            a.bytesIn.Load(),
		Dials:              a.dials.Load(),
		DialFailures:       a.dialFailures.Load(),
		Reconnects:         a.reconnects.Load(),
		SyncFailures:       a.syncFailures.Load(),
		AcksReceived:       a.acksReceived.Load(),
		CheckpointsWritten: a.checkpointsWritten.Load(),
		FleetExponent:      int(a.fleetExponent.Load()),
	}
}

// ExposeMetrics registers the agent's observability series on r under
// the instance label and returns the unregister function. The local
// engine's series are registered separately by the caller if wanted
// (engine.ExposeMetrics).
func (a *Agent) ExposeMetrics(r *obs.Registry, instance string) func() {
	owner := "netagg-agent:" + instance
	inst := obs.Label{Key: "instance", Value: instance}
	c := func(name, help string, f func() int64, labels ...obs.Label) {
		r.CounterFunc(owner, name, help, f, labels...)
	}
	c("repro_agent_snapshots_total", "sync ticks by outcome", a.snapshotsSent.Load, inst, obs.Label{Key: "outcome", Value: "sent"})
	c("repro_agent_snapshots_total", "sync ticks by outcome", a.snapshotsSkipped.Load, inst, obs.Label{Key: "outcome", Value: "skipped"})
	c("repro_agent_sketches_sent_total", "sketch blobs shipped", a.sketchesSent.Load, inst)
	c("repro_agent_frames_total", "frames by direction", a.framesIn.Load, inst, obs.Label{Key: "dir", Value: "in"})
	c("repro_agent_frames_total", "frames by direction", a.framesOut.Load, inst, obs.Label{Key: "dir", Value: "out"})
	c("repro_agent_bytes_total", "bytes by direction", a.bytesIn.Load, inst, obs.Label{Key: "dir", Value: "in"})
	c("repro_agent_bytes_total", "bytes by direction", a.bytesOut.Load, inst, obs.Label{Key: "dir", Value: "out"})
	c("repro_agent_dials_total", "dial attempts", a.dials.Load, inst)
	c("repro_agent_dial_failures_total", "dial attempts that failed", a.dialFailures.Load, inst)
	c("repro_agent_reconnects_total", "re-established connections", a.reconnects.Load, inst)
	c("repro_agent_sync_failures_total", "sync attempts that errored", a.syncFailures.Load, inst)
	c("repro_agent_acks_total", "snapshot ACKs received", a.acksReceived.Load, inst)
	c("repro_agent_checkpoints_total", "engine checkpoints written", a.checkpointsWritten.Load, inst)
	r.GaugeFunc(owner, "repro_agent_fleet_exponent", "CSSS exponent of the aggregator's heavy-hitters union, as the last ACK carried it", a.fleetExponent.Load, inst)
	r.HistogramFunc(owner, "repro_agent_sync_seconds", "marshal+push+ack wall time per shipped snapshot", a.syncNanos.Snapshot, inst)
	var unregCkpt func()
	if a.store != nil {
		unregCkpt = a.store.ExposeMetrics(r, instance)
	}
	return func() {
		r.RemoveOwner(owner)
		if unregCkpt != nil {
			unregCkpt()
		}
	}
}

// Close tears down the connection and the local engine, writing a
// final checkpoint first when a checkpoint directory is configured.
// Pending un-ACKed state is not flushed; Run's shutdown path does
// that.
func (a *Agent) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	a.syncMu.Lock()
	if a.conn != nil {
		a.conn.Close()
		a.conn, a.mr, a.mw = nil, nil, nil
	}
	a.syncMu.Unlock()
	if a.store != nil {
		if err := a.Checkpoint(); err != nil {
			a.opt.Logf("netagg: agent %s final checkpoint: %v", a.opt.ID, err)
		}
	}
	return a.eng.Close()
}
