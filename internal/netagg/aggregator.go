package netagg

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/ckpt"
	"repro/internal/netproto"
	"repro/internal/obs"
)

// AggregatorOptions configures an Aggregator. The zero value of every
// field is usable; Config must match the agents' exactly or their
// HELLOs are refused.
type AggregatorOptions struct {
	// Config is the sketch parameterization every agent must share.
	Config bounded.Config
	// Structures bounds which sketch kinds agents may ship (default
	// HeavyHitters). An agent may ship a subset; extra kinds are a
	// handshake error, not a silent drop.
	Structures engine.Structures
	// IOTimeout bounds each response write and the opening HELLO read
	// (default 10s). Steady-state reads are unbounded by default —
	// agents are allowed to go quiet between syncs — unless
	// IdleTimeout is set.
	IOTimeout time.Duration
	// IdleTimeout, when positive, drops connections that send nothing
	// for that long.
	IdleTimeout time.Duration
	// CheckpointDir, when set, makes the aggregator durable: the
	// per-agent table is checkpointed to this directory and recovered
	// on construction, so a restarted aggregator answers queries from
	// disk immediately and reconnecting agents resume incremental sync
	// instead of force-resending their full state.
	CheckpointDir string
	// CheckpointEvery paces the background checkpoint loop (default
	// 1s). Ticks where the committed state did not move write nothing.
	CheckpointEvery time.Duration
	// CheckpointKeep bounds retained checkpoints (default 3).
	CheckpointKeep int
	// Logf receives connection-lifecycle diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

func (o *AggregatorOptions) fill() {
	if o.Structures == 0 {
		o.Structures = engine.HeavyHitters
	}
	if o.IOTimeout == 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = time.Second
	}
	o.Logf = logfOr(o.Logf)
}

// agentState is one agent's latest committed contribution: exactly the
// kinds its newest snapshot carried. Nothing writes a stored sketch: a
// commit REPLACES the whole map (it never keeps a kind the snapshot
// left out) and retires the old one, which a later snapshot is decoded
// into — but a set is never recycled while a reader may hold it. The
// readers that capture the map under mu and read it outside are the
// view build, which holds qmu as every commit does, and Checkpoint,
// which counts itself in Aggregator.readers (retireLocked).
type agentState struct {
	sketches map[engine.Structures]bounded.Sketch
	seq      uint64 // highest committed Snapshot.Seq
	gen      uint64 // agent engine generation at that snapshot
	// lastSyncUnixNano feeds the staleness gauge; a plain atomic so
	// the gauge readback needs no aggregator lock.
	lastSyncUnixNano atomic.Int64
	snapshots        atomic.Int64
}

// AgentSyncStats is one agent's sync freshness in Stats.
type AgentSyncStats struct {
	ID        string
	Seq       uint64
	Gen       uint64
	Snapshots int64
	// Staleness is the time since the last committed snapshot.
	Staleness time.Duration
}

// AggregatorStats is a point-in-time snapshot of the aggregator's
// counters — the exact-count contract surface (plain atomics) that the
// e2e tests assert incremental sync against.
type AggregatorStats struct {
	ConnsOpened, ConnsClosed         int64
	FramesIn, FramesOut              int64
	BytesIn, BytesOut                int64
	SnapshotsApplied, SnapshotsStale int64
	SnapshotsRejected                int64
	QueriesServed, QueryErrors       int64
	HandshakeFailures                int64
	// ViewBuilds counts merged-view refreshes, one per commit
	// generation: the first query after a commit that refreshes
	// anything counts one, whatever kinds the queries before the next
	// commit then refresh. A query refreshes only the kind it reads: a
	// kind a commit left stale is rebuilt, and when every commit since
	// was folded into the heavy-hitters table by a shift, a
	// heavy-hitters query answers over the agents' candidates against
	// that table (HeavyHitters.HeavyHittersOver) while a point query
	// reads the table as it stands. ViewShifts counts those commits: an
	// agent's heavy-hitters table moved the view's by new − old in
	// place, at the union's exponent.
	ViewBuilds, ViewShifts int64
	// ViewSampleExponent is the CSSS exponent p of the merged heavy
	// hitters view at its last build. The UNION can leave rate 1 while
	// every agent is still at 0; the ACK then hands the agents its
	// exponent, they thin to it, and only the builds of a round in which
	// the union crosses a halving boundary (or an agent has not yet
	// caught up) pay alignment halvings.
	ViewSampleExponent int
	// ViewCandidates and ViewKept describe the heavy-hitters view's
	// candidate set at its last build: the distinct candidates of every
	// agent's tracker together, and how many of them the view's tracker
	// kept — all of them up to its limit, ranked once over the union.
	// AnswerCrossing and AnswerReturned describe the last heavy-hitters
	// answer taken over a shifted table: the distinct candidates whose
	// estimate crossed the threshold, and how many it returned — all of
	// them up to the same limit.
	ViewCandidates, ViewKept       int
	AnswerCrossing, AnswerReturned int
	// CheckpointsWritten counts state checkpoints actually written
	// (unchanged-state ticks are not counted); RecoveredAgents counts
	// agents whose state was restored from disk at construction.
	CheckpointsWritten int64
	RecoveredAgents    int64
	Agents             []AgentSyncStats
}

// Aggregator terminates many agent connections, retains each agent's
// latest full snapshot, and answers client queries over the merged
// union. Periodic full snapshots REPLACE per-agent state keyed by agent
// ID, which is what keeps resends and reconnects from double-counting
// mass.
type Aggregator struct {
	opt AggregatorOptions

	// mu guards the per-agent state table. stateVersion increments on
	// every commit; the checkpoint loop writes only when it moved.
	mu           sync.Mutex
	agents       map[string]*agentState
	stateVersion uint64
	// The union's sampling clock, moved by every commit (setSketchesLocked):
	// the summed position of the stored heavy-hitters sketches, and the
	// exponent P the next merged-view build reaches, which each ACK
	// carries.
	unionPosition int64
	unionExponent uint8
	// Recycling, guarded by mu: readers counts the Checkpoint calls
	// marshaling captured sets, and retired holds the sets commits
	// replaced meanwhile; the last reader out moves them to spares, the
	// pool applySnapshot decodes into.
	readers int
	retired []map[engine.Structures]bounded.Sketch
	spares  sync.Pool

	// qmu serializes query answering with commits and guards the merged
	// view, which commits fold themselves into (foldLocked) and the next
	// query of a kind refreshes (mergedView): a kind in stale is
	// rebuilt, and a heavy-hitters table shifted since its last build
	// (shifted) keeps its candidates as they were — a heavy-hitters
	// query answers over the agents' candidates instead (heavyHitters).
	// summed says the heavy-hitters view's table is the exact sum of the
	// stored ones: each samples at its exponent, as after a build whose
	// parts all did. refreshed says a query refreshed the view since the
	// last commit moved it (ViewBuilds counts one per such generation).
	qmu       sync.Mutex
	view      map[engine.Structures]bounded.Sketch
	stale     engine.Structures
	shifted   bool
	summed    bool
	refreshed bool

	lnMu   sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// Durability (checkpoint.go). ckptVersion is the stateVersion the
	// newest on-disk checkpoint was captured from, guarded by mu.
	store              *ckpt.Store
	ckptVersion        uint64
	ckptStop           chan struct{}
	ckptDone           chan struct{}
	checkpointsWritten atomic.Int64
	recoveredAgents    atomic.Int64

	connsOpened, connsClosed         atomic.Int64
	framesIn, framesOut              atomic.Int64
	bytesIn, bytesOut                atomic.Int64
	snapshotsApplied, snapshotsStale atomic.Int64
	snapshotsRejected                atomic.Int64
	queriesServed, queryErrors       atomic.Int64
	handshakeFailures                atomic.Int64
	viewBuilds, viewShifts           atomic.Int64
	viewExponent, viewHalvings       atomic.Int64 // the HH view's p at its last build; CSSS halvings builds performed
	viewCandidates, viewKept         atomic.Int64 // the HH view's candidate union and kept count at its last build
	answerCrossing, answerReturned   atomic.Int64 // the last HH answer over a shifted table: candidates crossing, returned
	mergeNanos                       obs.Histogram
	applyNanos                       obs.Histogram

	// Metrics registration, so agents that first appear after
	// ExposeMetrics still get their staleness gauge.
	regMu       sync.Mutex
	reg         *obs.Registry
	regOwner    string
	regInstance string
	ckptUnreg   func()
}

// NewAggregator returns an Aggregator; call Serve with a listener to
// start accepting.
func NewAggregator(opt AggregatorOptions) (*Aggregator, error) {
	if err := opt.Config.Validate(); err != nil {
		return nil, fmt.Errorf("netagg: aggregator config: %w", err)
	}
	opt.fill()
	a := &Aggregator{
		opt:    opt,
		agents: make(map[string]*agentState),
		view:   make(map[engine.Structures]bounded.Sketch),
		conns:  make(map[net.Conn]struct{}),
	}
	if opt.CheckpointDir != "" {
		if err := a.openCheckpoint(); err != nil {
			return nil, err
		}
		a.ckptStop = make(chan struct{})
		a.ckptDone = make(chan struct{})
		go a.checkpointLoop()
	}
	return a, nil
}

// Serve accepts connections on ln until Close (returns nil) or a
// listener failure (returns the error). One goroutine per connection.
func (a *Aggregator) Serve(ln net.Listener) error {
	a.lnMu.Lock()
	a.ln = ln
	a.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if a.closed.Load() {
				return nil
			}
			return err
		}
		a.lnMu.Lock()
		if a.closed.Load() {
			a.lnMu.Unlock()
			conn.Close()
			return nil
		}
		a.conns[conn] = struct{}{}
		a.lnMu.Unlock()
		a.connsOpened.Add(1)
		a.wg.Add(1)
		go a.handle(conn)
	}
}

// Close stops accepting, tears down live connections, and waits for
// handlers to drain. Committed agent state is retained (queries keep
// answering) until the Aggregator is garbage collected.
func (a *Aggregator) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	a.lnMu.Lock()
	if a.ln != nil {
		a.ln.Close()
	}
	for c := range a.conns {
		c.Close()
	}
	a.lnMu.Unlock()
	a.wg.Wait()

	if a.store != nil {
		// Stop the loop, then write one final checkpoint after every
		// handler has drained, so the newest committed state is on disk.
		close(a.ckptStop)
		<-a.ckptDone
		if err := a.Checkpoint(); err != nil {
			a.opt.Logf("netagg: aggregator final checkpoint: %v", err)
		}
	}

	a.regMu.Lock()
	if a.reg != nil {
		a.reg.RemoveOwner(a.regOwner)
		a.reg = nil
	}
	if a.ckptUnreg != nil {
		a.ckptUnreg()
		a.ckptUnreg = nil
	}
	a.regMu.Unlock()
	return nil
}

// Addr returns the listener address once Serve has one (for tests that
// listen on ":0").
func (a *Aggregator) Addr() net.Addr {
	a.lnMu.Lock()
	defer a.lnMu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

func (a *Aggregator) dropConn(conn net.Conn) {
	conn.Close()
	a.lnMu.Lock()
	delete(a.conns, conn)
	a.lnMu.Unlock()
	a.connsClosed.Add(1)
}

// handle runs one connection: HELLO/WELCOME handshake, then a loop of
// SNAPSHOT→ACK (agents) and QUERY→ANSWER (any role). Protocol
// violations get an ERROR frame and a close; a mid-frame disconnect
// simply ends the loop — nothing is committed for a snapshot whose
// frame never finished, so partial sends cannot corrupt global state.
func (a *Aggregator) handle(conn net.Conn) {
	defer a.wg.Done()
	defer a.dropConn(conn)

	cc := &countingConn{Conn: conn, in: &a.bytesIn, out: &a.bytesOut}
	mr := netproto.NewMessageReader(cc, netproto.DefaultMaxFrame)
	mw := netproto.NewMessageWriter(cc)
	send := func(m netproto.Msg) error {
		conn.SetWriteDeadline(deadline(a.opt.IOTimeout))
		if err := mw.Write(m); err != nil {
			return err
		}
		a.framesOut.Add(1)
		return nil
	}
	refuse := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		a.handshakeFailures.Add(1)
		a.opt.Logf("netagg: aggregator refusing %s: %s", conn.RemoteAddr(), msg)
		send(&netproto.Error{Msg: msg})
	}

	conn.SetReadDeadline(deadline(a.opt.IOTimeout))
	first, err := mr.Next()
	if err != nil {
		a.handshakeFailures.Add(1)
		return
	}
	a.framesIn.Add(1)
	hello, ok := first.(*netproto.Hello)
	if !ok {
		refuse("expected HELLO, got %s", first.Kind())
		return
	}
	version, err := netproto.Negotiate(hello)
	if err != nil {
		refuse("%s", err)
		return
	}
	var lastSeq uint64
	if hello.Role == netproto.RoleAgent {
		if hello.Agent == "" {
			refuse("agent HELLO with empty agent id")
			return
		}
		if got, want := hello.Config, configEcho(a.opt.Config); got != want {
			refuse("config mismatch: agent %+v, aggregator %+v", got, want)
			return
		}
		if extra := engine.Structures(hello.Structures) &^ a.opt.Structures; extra != 0 {
			refuse("agent ships structures %s the aggregator does not accept (accepts %s)",
				engine.Structures(hello.Structures), a.opt.Structures)
			return
		}
		a.mu.Lock()
		if st := a.agents[hello.Agent]; st != nil {
			lastSeq = st.seq
		}
		a.mu.Unlock()
	}
	if err := send(&netproto.Welcome{Version: version, LastSeq: lastSeq}); err != nil {
		return
	}

	for {
		conn.SetReadDeadline(deadline(a.opt.IdleTimeout))
		msg, err := mr.Next()
		if err != nil {
			return
		}
		a.framesIn.Add(1)
		switch m := msg.(type) {
		case *netproto.Snapshot:
			if hello.Role != netproto.RoleAgent {
				refuse("SNAPSHOT from non-agent role %s", hello.Role)
				return
			}
			exp, err := a.applySnapshot(hello.Agent, m)
			if err != nil {
				a.snapshotsRejected.Add(1)
				refuse("snapshot %d from %q: %s", m.Seq, hello.Agent, err)
				return
			}
			if err := send(&netproto.Ack{Seq: m.Seq, Exponent: exp}); err != nil {
				return
			}
		case *netproto.Query:
			ans := a.answer(m)
			if ans.Err != "" {
				a.queryErrors.Add(1)
			}
			a.queriesServed.Add(1)
			if err := send(ans); err != nil {
				return
			}
		case *netproto.Error:
			a.opt.Logf("netagg: aggregator peer %s reported: %s", conn.RemoteAddr(), m.Msg)
			return
		default:
			refuse("unexpected %s frame", msg.Kind())
			return
		}
	}
}

// applySnapshot decodes and checks every blob (engine.DecodeBlobs: the
// admission rules the engine's own restore applies, the Config echo
// included) into a retired agent set when the pool has one, hashes the
// heavy-hitters candidates once, then admits and commits all of them in
// one critical section (commitLocked) under qmu and mu — the order
// answer takes them in. Decode-before-commit is the atomicity
// guarantee: a snapshot with any malformed or foreign blob changes
// nothing. It returns the exponent the heavy-hitters union has once
// the snapshot is committed, which the ACK carries.
func (a *Aggregator) applySnapshot(id string, m *netproto.Snapshot) (uint8, error) {
	start := obs.Now()
	sketches, _ := a.spares.Get().(map[engine.Structures]bounded.Sketch)
	decoded, err := engine.DecodeBlobs(m.Sketches, a.opt.Structures, a.opt.Config, sketches)
	if err != nil {
		if sketches != nil {
			a.spares.Put(sketches)
		}
		return 0, err
	}
	// The agent's whole kind map, from this list alone: a kind the
	// snapshot leaves out is a kind the agent no longer contributes.
	if sketches == nil {
		sketches = make(map[engine.Structures]bounded.Sketch, len(decoded))
	} else {
		clear(sketches)
	}
	for j, sk := range decoded {
		sketches[engine.Structures(m.Sketches[j].Bit)] = sk
	}
	if hh := heavyOf(sketches); hh != nil {
		hh.HashCandidates()
	}

	a.qmu.Lock()
	defer a.qmu.Unlock()
	a.mu.Lock()
	st, committed, err := a.commitLocked(id, sketches, m.Seq, m.Gen)
	exp := a.unionExponent
	if err != nil || !committed {
		a.mu.Unlock()
		a.spares.Put(sketches) // never stored: nobody else holds it
		if err != nil {
			return 0, err
		}
		// A stale resend is still ACKed so the sender can move on.
		a.snapshotsStale.Add(1)
		return exp, nil
	}
	st.lastSyncUnixNano.Store(time.Now().UnixNano())
	st.snapshots.Add(1)
	a.stateVersion++
	a.mu.Unlock()

	a.snapshotsApplied.Add(1)
	a.applyNanos.ObserveSince(start)
	return exp, nil
}

// setSketchesLocked replaces an agent's kinds, folds the change into
// the merged view (foldLocked), retires the set it replaced
// (retireLocked), and moves the union's clock with them: the running
// sum of the stored heavy-hitters positions, then P, the larger of the
// stored sketches' highest exponent and the halving schedule at that
// sum. Merge raises its receiver to its argument's exponent and
// re-applies the schedule at the summed position, so P is exactly the
// exponent the next merged-view build reaches, whatever order it
// merges in. The caller holds qmu and a.mu (or owns the aggregator
// outright, as at recovery).
func (a *Aggregator) setSketchesLocked(st *agentState, sketches map[engine.Structures]bounded.Sketch) {
	old := st.sketches
	if hh := heavyOf(old); hh != nil {
		a.unionPosition -= hh.SamplePosition()
	}
	st.sketches = sketches
	if hh := heavyOf(sketches); hh != nil {
		a.unionPosition += hh.SamplePosition()
	}
	a.foldLocked(old, sketches)
	a.retireLocked(old)
	p := 0
	var some *bounded.HeavyHitters // any stored one: they share the Config, hence the schedule
	for _, other := range a.agents {
		if hh := heavyOf(other.sketches); hh != nil {
			p, some = max(p, hh.SampleExponent()), hh
		}
	}
	if some != nil {
		p = max(p, some.SampleExponentAt(a.unionPosition))
	}
	// A stored sketch's exponent is at most netproto.MaxExponent (its
	// decode's bound); only a summed position past any real stream's
	// could schedule more.
	a.unionExponent = uint8(min(p, int(netproto.MaxExponent)))
}

// foldLocked moves the merged view from an agent's old kinds to its
// new ones. Every kind either set holds is left to the next query's
// rebuild, except the heavy-hitters table while it is the exact sum of
// the stored ones (summed): it is shifted by new − old in place, and
// the next heavy-hitters query answers over the agents' candidates
// against it. A shift the table refuses — new or old at another
// exponent, or a sum that reaches the next halving, where the union
// would have halved — changes nothing, and the view is rebuilt. The
// caller holds qmu and a.mu.
func (a *Aggregator) foldLocked(old, sketches map[engine.Structures]bounded.Sketch) {
	var moved engine.Structures
	for bit := range old {
		moved |= bit
	}
	for bit := range sketches {
		moved |= bit
	}
	if moved != 0 {
		a.refreshed = false
	}
	if view, ok := a.view[engine.HeavyHitters].(*bounded.HeavyHitters); ok && a.summed {
		if add := heavyOf(sketches); add != nil && view.Shift(add, heavyOf(old)) == nil {
			moved &^= engine.HeavyHitters
			a.shifted = true
			a.viewShifts.Add(1)
		}
	}
	if moved&engine.HeavyHitters != 0 {
		a.summed = false
	}
	a.stale |= moved
}

// retireLocked hands a set a commit replaced to the pool the next
// snapshot is decoded into — at once, or, while a Checkpoint may still
// be marshaling it, when the last one ends (release). The view build
// needs no such wait: it holds qmu, which the commit did. The caller
// holds a.mu.
func (a *Aggregator) retireLocked(set map[engine.Structures]bounded.Sketch) {
	switch {
	case set == nil:
	case a.readers > 0:
		a.retired = append(a.retired, set)
	default:
		a.spares.Put(set)
	}
}

// release ends a reader's hold on the stored sets (see retireLocked).
func (a *Aggregator) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.readers--; a.readers == 0 {
		for _, set := range a.retired {
			a.spares.Put(set)
		}
		clear(a.retired)
		a.retired = a.retired[:0]
	}
}

// heavyOf returns an agent's stored heavy-hitters sketch, nil when it
// ships none.
func heavyOf(sketches map[engine.Structures]bounded.Sketch) *bounded.HeavyHitters {
	hh, _ := sketches[engine.HeavyHitters].(*bounded.HeavyHitters)
	return hh
}

// commitLocked is the one step that puts an agent's kinds into the
// table, for a live snapshot and a recovered checkpoint row alike.
// Every sketch must first combine with what the other agents hold of
// its kind (bounded.Compatible: the same Config and options). The
// aggregator has no options of its own: the first agent to ship a kind
// fixes them, and one built otherwise — a different SupportK,
// SyncCapacity, SamplerCopies or mode — is refused here rather than
// failing every fleet-wide query of that kind. An admitted agent's row
// is created on first sight; then, unless seq is not past the row's
// committed one (a duplicate or reordered resend the committed state
// already covers — full snapshots are idempotent), its kinds are
// replaced (setSketchesLocked) and its watermarks moved; the bool
// reports which. The caller holds qmu and a.mu (or owns the
// aggregator outright, as at recovery).
func (a *Aggregator) commitLocked(id string, sketches map[engine.Structures]bounded.Sketch, seq, gen uint64) (*agentState, bool, error) {
	for bit, sk := range sketches {
		for other, st := range a.agents {
			held := st.sketches[bit]
			if other == id || held == nil {
				continue
			}
			if err := bounded.Compatible(held, sk); err != nil {
				return nil, false, fmt.Errorf("structure %s does not combine with agent %q's: %w", bit, other, err)
			}
			break // the stored sketches of a kind all combine
		}
	}
	st := a.agents[id]
	if st == nil {
		st = &agentState{}
		a.agents[id] = st
		a.registerAgentGauge(id, st)
	}
	if seq <= st.seq {
		return st, false, nil
	}
	a.setSketchesLocked(st, sketches)
	st.seq, st.gen = seq, gen
	return st, true, nil
}

// mergedView returns kind bit of the union-of-all-agents view, nil when
// no agent ships it. When a commit left the kind stale it is rebuilt
// first, alone, by bounded.MergeAll over the stored sketches in
// sorted-ID order, written into the last view's storage. A
// heavy-hitters view whose table the commits only shifted is returned
// as it stands: its table is the union's, which is all a point query
// reads, and its candidates are left as the last build ranked them —
// the heavy-hitters answer is taken over the agents' candidates
// (heavyHitters), and only a read of the view's own tracker would need
// them re-ranked (HeavyHitters.Rerank), to the bytes a rebuild writes.
// A rebuild's bytes are a function of the committed state at rate 1,
// and whenever every stored heavy-hitters sketch samples at the
// union's exponent below its next halving. A rebuild that halves draws
// (the accumulator's generator is seeded by a word of the first
// agent's, and a thinned copy by one of its agent's), so there the
// bytes also depend on how many builds read the same stored sketches —
// on the query history (ROADMAP 4a). The caller holds qmu, which every
// commit also takes, so the stored sketches are read where they are,
// outside a.mu; the returned sketch stays valid (and is mutated only
// under qmu, e.g. heavy-hitters query scratch) until the next refresh.
func (a *Aggregator) mergedView(bit engine.Structures) (bounded.Sketch, error) {
	if a.stale&bit == 0 {
		return a.view[bit], nil
	}
	start := obs.Now()
	parts := a.stored(bit)
	if len(parts) == 0 {
		delete(a.view, bit)
	} else {
		acc, err := bounded.MergeAll(a.view[bit], parts)
		if err != nil {
			return nil, fmt.Errorf("netagg: merging %T: %w", parts[0], err)
		}
		a.view[bit] = acc
		if hh, ok := acc.(*bounded.HeavyHitters); ok {
			a.summed, a.shifted = true, false
			for _, part := range heavies(parts) {
				a.summed = a.summed && part.SampleExponent() == hh.SampleExponent()
			}
			a.viewHalvings.Add(hh.Halvings())
			a.viewExponent.Store(int64(hh.SampleExponent()))
			union, kept := hh.MergeCounts()
			a.viewCandidates.Store(int64(union))
			a.viewKept.Store(int64(kept))
		}
	}
	a.stale &^= bit
	a.noteRefresh(start)
	return a.view[bit], nil
}

// heavyHitters answers a heavy-hitters query. Over a table the commits
// only shifted it is taken over the agents' candidates
// (HeavyHitters.HeavyHittersOver): what a re-rank and then a read of
// the view would return, without writing the view's tracker. The
// caller holds qmu.
func (a *Aggregator) heavyHitters() ([]uint64, error) {
	sk, err := a.mergedView(engine.HeavyHitters)
	if err != nil || sk == nil {
		return nil, err
	}
	hh := sk.(*bounded.HeavyHitters)
	if !a.shifted {
		return hh.HeavyHitters(), nil
	}
	start := obs.Now()
	keys, err := hh.HeavyHittersOver(heavies(a.stored(engine.HeavyHitters)))
	if err != nil {
		return nil, fmt.Errorf("netagg: heavy hitters over the agents: %w", err)
	}
	crossing, returned := hh.MergeCounts()
	a.answerCrossing.Store(int64(crossing))
	a.answerReturned.Store(int64(returned))
	a.noteRefresh(start)
	return keys, nil
}

// noteRefresh records a view refresh that began at start: its wall
// time, and one ViewBuilds count when it is the first since a commit
// moved the view. The caller holds qmu.
func (a *Aggregator) noteRefresh(start int64) {
	if !a.refreshed {
		a.refreshed = true
		a.viewBuilds.Add(1)
	}
	a.mergeNanos.ObserveSince(start)
}

// stored returns every agent's stored sketch of kind bit, in sorted-ID
// order. The caller holds qmu, under which the stored sets stay where
// they are.
func (a *Aggregator) stored(bit engine.Structures) []bounded.Sketch {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.agents))
	for id, st := range a.agents {
		if st.sketches[bit] != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	parts := make([]bounded.Sketch, len(ids))
	for j, id := range ids {
		parts[j] = a.agents[id].sketches[bit]
	}
	return parts
}

// heavies returns heavy-hitters parts as their concrete type.
func heavies(parts []bounded.Sketch) []*bounded.HeavyHitters {
	out := make([]*bounded.HeavyHitters, len(parts))
	for j, p := range parts {
		out[j] = p.(*bounded.HeavyHitters)
	}
	return out
}

// answer executes one query against the merged view. An empty
// aggregator (no snapshots yet) answers like an empty stream: zero
// estimates, empty sets, zero norms. Asking for a structure the
// aggregator does not accept is an Answer.Err, not a connection error.
func (a *Aggregator) answer(q *netproto.Query) *netproto.Answer {
	ans := &netproto.Answer{ID: q.ID}
	accepts := func(bit engine.Structures) bool {
		if bit&^a.opt.Structures != 0 {
			ans.Err = fmt.Sprintf("netagg: %s needs structure %s, aggregator accepts %s",
				q.Op, bit, a.opt.Structures)
			return false
		}
		return true
	}
	need := func(bit engine.Structures) (bounded.Sketch, bool) {
		if !accepts(bit) {
			return nil, false
		}
		sk, err := a.mergedView(bit)
		if err != nil {
			ans.Err = err.Error()
			return nil, false
		}
		return sk, true
	}

	a.qmu.Lock()
	defer a.qmu.Unlock()
	switch q.Op {
	case netproto.OpEstimate:
		sk, ok := need(engine.HeavyHitters)
		if !ok {
			return ans
		}
		if sk == nil {
			ans.Values = make([]float64, len(q.Keys))
			return ans
		}
		ans.Values = sk.(*bounded.HeavyHitters).EstimateBatch(q.Keys)
	case netproto.OpHeavyHitters:
		if !accepts(engine.HeavyHitters) {
			return ans
		}
		keys, err := a.heavyHitters()
		if err != nil {
			ans.Err = err.Error()
		}
		ans.Keys = keys
	case netproto.OpL1:
		sk, ok := need(engine.L1Estimator)
		if !ok {
			return ans
		}
		ans.Values = []float64{0}
		if sk != nil {
			ans.Values[0] = sk.(*bounded.L1Estimator).Estimate()
		}
	case netproto.OpSupport:
		sk, ok := need(engine.SupportSampler)
		if !ok {
			return ans
		}
		if sk != nil {
			ans.Keys = sk.(*bounded.SupportSampler).Recover()
		}
	default:
		ans.Err = fmt.Sprintf("netagg: unsupported query op %s", q.Op)
	}
	return ans
}

// Stats snapshots the aggregator's counters and per-agent freshness.
func (a *Aggregator) Stats() AggregatorStats {
	s := AggregatorStats{
		ConnsOpened:        a.connsOpened.Load(),
		ConnsClosed:        a.connsClosed.Load(),
		FramesIn:           a.framesIn.Load(),
		FramesOut:          a.framesOut.Load(),
		BytesIn:            a.bytesIn.Load(),
		BytesOut:           a.bytesOut.Load(),
		SnapshotsApplied:   a.snapshotsApplied.Load(),
		SnapshotsStale:     a.snapshotsStale.Load(),
		SnapshotsRejected:  a.snapshotsRejected.Load(),
		QueriesServed:      a.queriesServed.Load(),
		QueryErrors:        a.queryErrors.Load(),
		HandshakeFailures:  a.handshakeFailures.Load(),
		ViewBuilds:         a.viewBuilds.Load(),
		ViewShifts:         a.viewShifts.Load(),
		ViewSampleExponent: int(a.viewExponent.Load()),
		ViewCandidates:     int(a.viewCandidates.Load()),
		ViewKept:           int(a.viewKept.Load()),
		AnswerCrossing:     int(a.answerCrossing.Load()),
		AnswerReturned:     int(a.answerReturned.Load()),
		CheckpointsWritten: a.checkpointsWritten.Load(),
		RecoveredAgents:    a.recoveredAgents.Load(),
	}
	now := time.Now()
	a.mu.Lock()
	for id, st := range a.agents {
		s.Agents = append(s.Agents, AgentSyncStats{
			ID:        id,
			Seq:       st.seq,
			Gen:       st.gen,
			Snapshots: st.snapshots.Load(),
			Staleness: now.Sub(time.Unix(0, st.lastSyncUnixNano.Load())),
		})
	}
	a.mu.Unlock()
	sort.Slice(s.Agents, func(i, j int) bool { return s.Agents[i].ID < s.Agents[j].ID })
	return s
}

// ExposeMetrics registers the aggregator's observability series on r
// under the instance label: connection/frame/byte counters, snapshot
// commit and merge latency histograms, and a per-agent staleness gauge
// (agents that first sync later are added as they appear). Returns the
// unregister function; Close also unregisters.
func (a *Aggregator) ExposeMetrics(r *obs.Registry, instance string) func() {
	owner := "netagg-aggd:" + instance
	inst := obs.Label{Key: "instance", Value: instance}
	c := func(name, help string, f func() int64, labels ...obs.Label) {
		r.CounterFunc(owner, name, help, f, labels...)
	}
	c("repro_aggd_conns_total", "connections accepted", a.connsOpened.Load, inst)
	r.GaugeFunc(owner, "repro_aggd_conns_open", "connections currently open",
		func() int64 { return a.connsOpened.Load() - a.connsClosed.Load() }, inst)
	c("repro_aggd_frames_total", "frames by direction", a.framesIn.Load, inst, obs.Label{Key: "dir", Value: "in"})
	c("repro_aggd_frames_total", "frames by direction", a.framesOut.Load, inst, obs.Label{Key: "dir", Value: "out"})
	c("repro_aggd_bytes_total", "bytes by direction", a.bytesIn.Load, inst, obs.Label{Key: "dir", Value: "in"})
	c("repro_aggd_bytes_total", "bytes by direction", a.bytesOut.Load, inst, obs.Label{Key: "dir", Value: "out"})
	c("repro_aggd_snapshots_total", "snapshots by outcome", a.snapshotsApplied.Load, inst, obs.Label{Key: "outcome", Value: "applied"})
	c("repro_aggd_snapshots_total", "snapshots by outcome", a.snapshotsStale.Load, inst, obs.Label{Key: "outcome", Value: "stale"})
	c("repro_aggd_snapshots_total", "snapshots by outcome", a.snapshotsRejected.Load, inst, obs.Label{Key: "outcome", Value: "rejected"})
	c("repro_aggd_queries_total", "client queries answered", a.queriesServed.Load, inst)
	c("repro_aggd_query_errors_total", "client queries answered with an error", a.queryErrors.Load, inst)
	c("repro_aggd_handshake_failures_total", "connections refused during handshake", a.handshakeFailures.Load, inst)
	c("repro_aggd_view_builds_total", "merged-view refreshes, one per commit generation: rebuilds, or heavy-hitters answers over a shifted table", a.viewBuilds.Load, inst)
	c("repro_netagg_view_shifts_total", "commits folded into the heavy-hitters view by a shift of its table", a.viewShifts.Load, inst)
	r.GaugeFunc(owner, "repro_netagg_view_csss_exponent", "CSSS exponent p of the merged heavy-hitters view at its last build (0 = exact)", a.viewExponent.Load, inst)
	c("repro_netagg_view_align_halvings_total", "CSSS halvings the merged-view builds performed (each build counts its own table's and its thinned copies')", a.viewHalvings.Load, inst)
	const candidatesHelp = "heavy-hitters candidates: the agents' union at the last merged-view build and those the view kept; those crossing the threshold at the last answer over a shifted table and those it returned"
	for _, g := range []struct {
		set string
		f   func() int64
	}{{"union", a.viewCandidates.Load}, {"kept", a.viewKept.Load}, {"crossing", a.answerCrossing.Load}, {"answered", a.answerReturned.Load}} {
		r.GaugeFunc(owner, "repro_netagg_view_candidates", candidatesHelp, g.f, inst, obs.Label{Key: "set", Value: g.set})
	}
	c("repro_aggd_checkpoints_total", "state checkpoints written", a.checkpointsWritten.Load, inst)
	c("repro_aggd_recovered_agents_total", "agents restored from a checkpoint at startup", a.recoveredAgents.Load, inst)
	r.HistogramFunc(owner, "repro_aggd_merge_seconds", "merged-view refresh wall time: rebuilds, heavy-hitters answers over a shifted table", a.mergeNanos.Snapshot, inst)
	r.HistogramFunc(owner, "repro_aggd_apply_seconds", "snapshot decode+commit wall time", a.applyNanos.Snapshot, inst)
	var ckptUnreg func()
	if a.store != nil {
		ckptUnreg = a.store.ExposeMetrics(r, instance)
	}

	a.regMu.Lock()
	a.reg, a.regOwner, a.regInstance, a.ckptUnreg = r, owner, instance, ckptUnreg
	a.regMu.Unlock()
	// Gauges for agents that synced before metrics were exposed.
	a.mu.Lock()
	for id, st := range a.agents {
		a.registerAgentGauge(id, st)
	}
	a.mu.Unlock()
	return func() {
		a.regMu.Lock()
		if a.reg == r {
			a.reg = nil
		}
		unregCkpt := a.ckptUnreg
		a.ckptUnreg = nil
		a.regMu.Unlock()
		r.RemoveOwner(owner)
		if unregCkpt != nil {
			unregCkpt()
		}
	}
}

// registerAgentGauge adds the per-agent staleness gauge, once per
// unique agent ID (agentState entries persist across reconnects, so a
// flapping agent cannot duplicate its series). Callers hold a.mu; the
// gauge readback itself only touches the agent's atomic.
func (a *Aggregator) registerAgentGauge(id string, st *agentState) {
	a.regMu.Lock()
	defer a.regMu.Unlock()
	if a.reg == nil {
		return
	}
	a.reg.GaugeFunc(a.regOwner, "repro_aggd_agent_staleness_ms",
		"milliseconds since the agent's last committed snapshot",
		func() int64 {
			last := st.lastSyncUnixNano.Load()
			if last == 0 {
				return -1
			}
			return (time.Now().UnixNano() - last) / int64(time.Millisecond)
		},
		obs.Label{Key: "instance", Value: a.regInstance},
		obs.Label{Key: "agent", Value: id})
}
