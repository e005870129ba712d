package netagg

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/gen"
	"repro/internal/netproto"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// testConfig is the e2e parameterization: the distributedmerge
// example's numbers, small enough that three engines plus a reference
// run fast under -race.
var testConfig = bounded.Config{N: 1 << 16, Eps: 0.05, Alpha: 4, Seed: 7}

const testStructures = engine.HeavyHitters | engine.L1Estimator | engine.SupportSampler

const numSites = 3

// siteOf partitions the key universe across sites. Partitioning by
// key keeps every site's substream a valid turnstile stream on its
// own (a delete lands on the site that saw the insert).
func siteOf(key uint64) int { return int(key % numSites) }

// testStream builds the repo's canonical bounded-deletion workload —
// zipf-skewed inserts with interleaved alpha-bounded deletions, the
// family the sketch-level merge tests pin their exact regime on.
func testStream(items int, seed int64) []bounded.Update {
	s := gen.BoundedDeletion(gen.Config{
		N: testConfig.N, Items: items, Alpha: testConfig.Alpha,
		Zipf: 1.5, Shuffle: true, Seed: seed,
	})
	return s.Updates
}

// startAggregator serves an aggregator on a fresh loopback port and
// returns it with its address. Closing is the caller's job.
func startAggregator(t *testing.T, opt AggregatorOptions) (*Aggregator, string) {
	t.Helper()
	agg, err := NewAggregator(opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go agg.Serve(ln)
	return agg, ln.Addr().String()
}

func newTestAgent(t *testing.T, id, addr string) *Agent {
	t.Helper()
	a, err := NewAgent(AgentOptions{
		ID:         id,
		Aggregator: addr,
		Config:     testConfig,
		Engine:     engine.Options{Shards: 2, Structures: testStructures},
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		IOTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// sortedCopy returns keys sorted ascending (set comparison helper).
func sortedCopy(keys []uint64) []uint64 {
	out := append([]uint64(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refSketch pulls one structure's canonical merged full-stream state
// out of the reference engine, through the same Snapshot surface the
// agents ship over the wire.
func refSketch(t *testing.T, ref *engine.Engine, bit engine.Structures) bounded.Sketch {
	t.Helper()
	b, err := ref.Snapshot(bit)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := bounded.UnmarshalSketch(b)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// verifyAgainstReference asserts the aggregator's answers over the
// client are bit-identical to the whole-stream reference engine's
// merged state: point estimates, heavy-hitter set, L1 norm, and
// recovered support. The reference is read through Snapshot — the
// engine's canonical merged full-stream state, the exact thing the
// aggregation tier distributes. (The engine's routed point-query fast
// path is deliberately NOT the baseline: it answers from shard-local
// sketches, a slightly different — tighter-collision — estimator than
// the merged sketch, so it can legitimately differ by a collision's
// worth of noise.)
func verifyAgainstReference(t *testing.T, c *Client, ref *engine.Engine, probeKeys []uint64) {
	t.Helper()
	refHH := refSketch(t, ref, engine.HeavyHitters).(*bounded.HeavyHitters)

	wantVals := refHH.EstimateBatch(probeKeys)
	gotVals, err := c.Estimate(probeKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probeKeys {
		if gotVals[i] != wantVals[i] {
			t.Fatalf("estimate(%d) = %v over the network, %v from the reference engine",
				probeKeys[i], gotVals[i], wantVals[i])
		}
	}

	wantHH := refHH.HeavyHitters()
	gotHH, err := c.HeavyHitters()
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64s(sortedCopy(gotHH), sortedCopy(wantHH)) {
		t.Fatalf("heavy hitters = %v over the network, %v from the reference engine", gotHH, wantHH)
	}

	wantL1 := refSketch(t, ref, engine.L1Estimator).(*bounded.L1Estimator).Estimate()
	gotL1, err := c.L1()
	if err != nil {
		t.Fatal(err)
	}
	if gotL1 != wantL1 {
		t.Fatalf("L1 = %v over the network, %v from the reference engine", gotL1, wantL1)
	}

	wantSup := refSketch(t, ref, engine.SupportSampler).(*bounded.SupportSampler).Recover()
	gotSup, err := c.Support()
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64s(sortedCopy(gotSup), sortedCopy(wantSup)) {
		t.Fatalf("support = %v over the network, %v from the reference engine", gotSup, wantSup)
	}
}

// TestEndToEndDifferential is the capstone: three agents over real
// loopback sockets on disjoint key slices, one aggregator, and a
// reference engine fed the whole stream. The aggregator's answers
// must be bit-identical to the reference at every checkpoint —
// including after the aggregator restarts mid-run and every agent
// reconnects and resends — and sync ticks with an unchanged engine
// generation must ship no frames.
func TestEndToEndDifferential(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{Config: testConfig, Structures: testStructures})
	defer agg.Close()

	agents := make([]*Agent, numSites)
	for i := range agents {
		agents[i] = newTestAgent(t, fmt.Sprintf("site-%d", i), addr)
	}

	ref, err := engine.New(testConfig, engine.Options{Shards: 2, Structures: testStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	stream := testStream(60_000, 11)
	phase1, phase2, phase3 := stream[:30_000], stream[30_000:50_000], stream[50_000:]
	probeKeys := []uint64{0, 1, 2, 3, 7, 31, 100, 4096, testConfig.N - 1}

	ingest := func(updates []bounded.Update) {
		bySite := make([][]bounded.Update, numSites)
		for _, u := range updates {
			s := siteOf(u.Index)
			bySite[s] = append(bySite[s], u)
		}
		for i, a := range agents {
			if err := a.Ingest(bySite[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.Ingest(updates); err != nil {
			t.Fatal(err)
		}
	}
	syncAll := func() {
		for _, a := range agents {
			if err := a.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: ingest, sync, verify.
	ingest(phase1)
	syncAll()
	client, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	verifyAgainstReference(t, client, ref, probeKeys)

	// Incremental-sync contract: nothing changed since the ACK, so a
	// sync tick must ship no frame at all — asserted against the exact
	// counters on both ends.
	aggBefore := agg.Stats()
	for _, a := range agents {
		before := a.Stats()
		if err := a.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		after := a.Stats()
		if after.SnapshotsSkipped != before.SnapshotsSkipped+1 {
			t.Fatalf("idle sync: skipped %d -> %d, want +1", before.SnapshotsSkipped, after.SnapshotsSkipped)
		}
		if after.FramesOut != before.FramesOut {
			t.Fatalf("idle sync shipped %d frames, want 0", after.FramesOut-before.FramesOut)
		}
		if after.SnapshotsSent != before.SnapshotsSent {
			t.Fatal("idle sync counted as a sent snapshot")
		}
	}
	if got := agg.Stats(); got.SnapshotsApplied != aggBefore.SnapshotsApplied || got.FramesIn != aggBefore.FramesIn {
		t.Fatalf("idle syncs reached the aggregator: applied %d -> %d, framesIn %d -> %d",
			aggBefore.SnapshotsApplied, got.SnapshotsApplied, aggBefore.FramesIn, got.FramesIn)
	}

	// The merged view is cached between commits: repeated queries must
	// not rebuild it.
	builds := agg.Stats().ViewBuilds
	if _, err := client.Estimate(probeKeys); err != nil {
		t.Fatal(err)
	}
	if _, err := client.HeavyHitters(); err != nil {
		t.Fatal(err)
	}
	if got := agg.Stats().ViewBuilds; got != builds {
		t.Fatalf("queries with no new commits rebuilt the view: %d -> %d", builds, got)
	}

	// Mid-run aggregator restart: every connection dies, agents must
	// reconnect, learn via WELCOME.LastSeq=0 that their state is gone,
	// and resend in full even though their generations are unchanged.
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	agg2, err := NewAggregator(AggregatorOptions{Config: testConfig, Structures: testStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer agg2.Close()
	go agg2.Serve(ln)

	ingest(phase2)
	for _, a := range agents {
		// The first sync attempt may fail on the dead connection; the
		// retry must reconnect and push.
		if err := a.Sync(context.Background()); err != nil {
			if err = a.Sync(context.Background()); err != nil {
				t.Fatalf("sync after aggregator restart: %v", err)
			}
		}
	}
	for _, a := range agents {
		if st := a.Stats(); st.Reconnects == 0 {
			t.Fatal("agent never recorded a reconnect across the aggregator restart")
		}
	}

	client2, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	verifyAgainstReference(t, client2, ref, probeKeys)

	st := agg2.Stats()
	if len(st.Agents) != numSites {
		t.Fatalf("restarted aggregator tracks %d agents, want %d", len(st.Agents), numSites)
	}
	for _, as := range st.Agents {
		if as.Snapshots == 0 || as.Seq == 0 {
			t.Fatalf("agent %s: no committed snapshot after restart (%+v)", as.ID, as)
		}
	}

	// Phase 3: durable restart. A third aggregator run gets a
	// checkpoint directory; after it absorbs the agents' state and
	// checkpoints, a fourth run restarted from that directory must
	// answer bit-identically from disk BEFORE any agent syncs, and a
	// reconnecting agent whose state is unchanged must ship only its
	// HELLO — no snapshot resend storm.
	ckptDir := t.TempDir()
	if err := agg2.Close(); err != nil {
		t.Fatal(err)
	}
	ln3, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	agg3, err := NewAggregator(AggregatorOptions{
		Config: testConfig, Structures: testStructures,
		CheckpointDir: ckptDir, CheckpointEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg3.Close()
	go agg3.Serve(ln3)
	if got := agg3.Stats().RecoveredAgents; got != 0 {
		t.Fatalf("cold checkpoint dir recovered %d agents, want 0", got)
	}

	ingest(phase3)
	for _, a := range agents {
		if err := a.Sync(context.Background()); err != nil {
			if err = a.Sync(context.Background()); err != nil {
				t.Fatalf("sync after second aggregator restart: %v", err)
			}
		}
	}
	client3, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client3.Close()
	verifyAgainstReference(t, client3, ref, probeKeys)

	if err := agg3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := agg3.Stats().CheckpointsWritten; got == 0 {
		t.Fatal("explicit Checkpoint wrote nothing")
	}
	preRestart := agg3.Stats()
	if err := agg3.Close(); err != nil {
		t.Fatal(err)
	}

	ln4, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	agg4, err := NewAggregator(AggregatorOptions{
		Config: testConfig, Structures: testStructures,
		CheckpointDir: ckptDir, CheckpointEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg4.Close()
	go agg4.Serve(ln4)
	if got := agg4.Stats().RecoveredAgents; got != numSites {
		t.Fatalf("restarted aggregator recovered %d agents from disk, want %d", got, numSites)
	}

	// Answers come straight from the recovered table: bit-identical to
	// the reference with zero snapshots applied.
	client4, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client4.Close()
	verifyAgainstReference(t, client4, ref, probeKeys)
	if got := agg4.Stats().SnapshotsApplied; got != 0 {
		t.Fatalf("recovered aggregator needed %d snapshots before answering, want 0", got)
	}

	// No resend storm: drop each agent's dead connection so the next
	// sync re-handshakes. The recovered WELCOME.LastSeq matches the
	// agent's own watermark, so an unchanged agent ships exactly one
	// frame (HELLO) and no snapshot.
	for _, a := range agents {
		a.syncMu.Lock()
		if a.conn != nil {
			a.conn.Close()
			a.conn, a.mr, a.mw = nil, nil, nil
		}
		a.syncMu.Unlock()

		before := a.Stats()
		if err := a.Sync(context.Background()); err != nil {
			t.Fatalf("sync after checkpointed restart: %v", err)
		}
		after := a.Stats()
		if after.FramesOut != before.FramesOut+1 {
			t.Fatalf("reconnect to recovered aggregator shipped %d frames, want 1 (HELLO only)",
				after.FramesOut-before.FramesOut)
		}
		if after.SnapshotsSent != before.SnapshotsSent {
			t.Fatalf("reconnect to recovered aggregator resent %d snapshots, want 0",
				after.SnapshotsSent-before.SnapshotsSent)
		}
		if after.SnapshotsSkipped != before.SnapshotsSkipped+1 {
			t.Fatalf("reconnect sync: skipped %d -> %d, want +1", before.SnapshotsSkipped, after.SnapshotsSkipped)
		}
	}
	st4 := agg4.Stats()
	if st4.SnapshotsApplied != 0 {
		t.Fatalf("recovered aggregator applied %d snapshots across idle reconnects, want 0", st4.SnapshotsApplied)
	}
	if len(st4.Agents) != numSites {
		t.Fatalf("recovered aggregator tracks %d agents, want %d", len(st4.Agents), numSites)
	}
	for i, as := range st4.Agents {
		if as.Seq != preRestart.Agents[i].Seq || as.Gen != preRestart.Agents[i].Gen {
			t.Fatalf("agent %s watermarks changed across restart: %+v vs %+v", as.ID, as, preRestart.Agents[i])
		}
	}
}

// TestDialBackoffAndRecovery pins the reconnect policy: consecutive
// dial failures double the delay up to BackoffMax, and a successful
// connect resets it.
func TestDialBackoffAndRecovery(t *testing.T) {
	// Reserve a port with nothing listening on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	a := newTestAgent(t, "flaky", addr)
	if err := a.Ingest([]bounded.Update{{Index: 1, Delta: 1}}); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 3; i++ {
		if err := a.Sync(context.Background()); err == nil {
			t.Fatal("sync succeeded with no aggregator listening")
		}
		st := a.Stats()
		if st.DialFailures != int64(i) {
			t.Fatalf("after %d failed syncs: DialFailures = %d", i, st.DialFailures)
		}
	}
	a.syncMu.Lock()
	backoff := a.backoff
	a.syncMu.Unlock()
	if want := 4 * time.Millisecond; backoff != want { // 1ms doubled twice
		t.Fatalf("backoff after 3 failures = %v, want %v", backoff, want)
	}

	// A canceled context must abort the backoff wait, not sleep it out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.Sync(ctx); err == nil {
		t.Fatal("sync with canceled context returned nil")
	}

	agg, err := NewAggregator(AggregatorOptions{Config: testConfig, Structures: testStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go agg.Serve(ln2)

	if err := a.Sync(context.Background()); err != nil {
		t.Fatalf("sync after aggregator came up: %v", err)
	}
	st := a.Stats()
	if st.SnapshotsSent != 1 {
		t.Fatalf("SnapshotsSent = %d, want 1", st.SnapshotsSent)
	}
	a.syncMu.Lock()
	backoff = a.backoff
	a.syncMu.Unlock()
	if backoff != 0 {
		t.Fatalf("backoff not reset after successful connect: %v", backoff)
	}
}

// rawAgentConn handshakes a raw TCP connection as an agent so tests
// can inject precise byte sequences.
func rawAgentConn(t *testing.T, addr, id string) (net.Conn, *netproto.MessageReader, *netproto.MessageWriter) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	mr := netproto.NewMessageReader(conn, 0)
	mw := netproto.NewMessageWriter(conn)
	if err := mw.Write(&netproto.Hello{
		Role: netproto.RoleAgent, Agent: id,
		MinVersion: netproto.VersionMin, MaxVersion: netproto.VersionMax,
		Config:     configEcho(testConfig),
		Structures: uint32(engine.HeavyHitters),
	}); err != nil {
		t.Fatal(err)
	}
	reply, err := mr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(*netproto.Welcome); !ok {
		t.Fatalf("handshake reply = %T, want WELCOME", reply)
	}
	return conn, mr, mw
}

// hhBlob marshals a heavy-hitters sketch holding the given updates.
func hhBlob(t *testing.T, updates []bounded.Update) []byte {
	t.Helper()
	b, _ := hhBlobAt(t, testConfig, updates)
	return b
}

// TestPartialSnapshotNoCorruption pins the atomic-commit guarantee: a
// connection that dies mid-frame, or ships a snapshot with a malformed
// blob, changes nothing — queries keep answering from the last
// committed state.
func TestPartialSnapshotNoCorruption(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{
		Config: testConfig, Structures: engine.HeavyHitters,
		IOTimeout: 2 * time.Second,
	})
	defer agg.Close()

	// Commit one good snapshot.
	conn, mr, mw := rawAgentConn(t, addr, "raw")
	good := &netproto.Snapshot{Seq: 1, Gen: 1, Sketches: []wire.Blob{{
		Bit:     uint32(engine.HeavyHitters),
		Payload: hhBlob(t, []bounded.Update{{Index: 42, Delta: 9}}),
	}}}
	if err := mw.Write(good); err != nil {
		t.Fatal(err)
	}
	if reply, err := mr.Next(); err != nil {
		t.Fatal(err)
	} else if ack, ok := reply.(*netproto.Ack); !ok || ack.Seq != 1 {
		t.Fatalf("reply = %#v, want ACK{1}", reply)
	}

	client, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	baseline, err := client.Estimate([]uint64{42})
	if err != nil {
		t.Fatal(err)
	}
	if baseline[0] != 9 {
		t.Fatalf("estimate(42) = %v, want 9", baseline[0])
	}

	// Disconnect mid-frame: a full length prefix, half the payload.
	payload := netproto.Encode(&netproto.Snapshot{Seq: 2, Gen: 2, Sketches: []wire.Blob{{
		Bit:     uint32(engine.HeavyHitters),
		Payload: hhBlob(t, []bounded.Update{{Index: 42, Delta: 1000}}),
	}}})
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(append(hdr[:], payload[:len(payload)/2]...)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A second connection ships a snapshot whose blob does not decode.
	_, mr2, mw2 := rawAgentConn(t, addr, "raw2")
	bad := &netproto.Snapshot{Seq: 1, Gen: 1, Sketches: []wire.Blob{{
		Bit:     uint32(engine.HeavyHitters),
		Payload: []byte("BD not a sketch"),
	}}}
	if err := mw2.Write(bad); err != nil {
		t.Fatal(err)
	}
	if reply, err := mr2.Next(); err != nil {
		t.Fatal(err)
	} else if _, ok := reply.(*netproto.Error); !ok {
		t.Fatalf("malformed snapshot answered %T, want ERROR", reply)
	}

	// Give the handler a moment to observe the torn connection.
	deadlineAt := time.Now().Add(2 * time.Second)
	for {
		st := agg.Stats()
		if st.ConnsClosed >= 2 || time.Now().After(deadlineAt) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := agg.Stats()
	if st.SnapshotsApplied != 1 {
		t.Fatalf("SnapshotsApplied = %d, want 1 (neither torn nor malformed commit)", st.SnapshotsApplied)
	}
	if st.SnapshotsRejected != 1 {
		t.Fatalf("SnapshotsRejected = %d, want 1", st.SnapshotsRejected)
	}
	after, err := client.Estimate([]uint64{42})
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != baseline[0] {
		t.Fatalf("estimate(42) moved %v -> %v across torn/malformed snapshots", baseline[0], after[0])
	}
}

// TestForeignConfigSnapshotRefused: an agent whose HELLO echoes the
// aggregator's Config but whose blob was built from another seed is
// refused at SNAPSHOT time — ERROR reply, SnapshotsRejected +1, nothing
// committed — and the good agent's state keeps answering. Admitted, the
// foreign blob would fail every later merged view ("different hash
// wirings") until that agent resent, and be persisted by the next
// checkpoint.
func TestForeignConfigSnapshotRefused(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{
		Config: testConfig, Structures: engine.HeavyHitters,
		IOTimeout: 2 * time.Second,
	})
	defer agg.Close()

	_, mr, mw := rawAgentConn(t, addr, "good")
	if err := mw.Write(&netproto.Snapshot{Seq: 1, Gen: 1, Sketches: []wire.Blob{{
		Bit:     uint32(engine.HeavyHitters),
		Payload: hhBlob(t, []bounded.Update{{Index: 42, Delta: 9}}),
	}}}); err != nil {
		t.Fatal(err)
	}
	if reply, err := mr.Next(); err != nil {
		t.Fatal(err)
	} else if ack, ok := reply.(*netproto.Ack); !ok || ack.Seq != 1 {
		t.Fatalf("reply = %#v, want ACK{1}", reply)
	}

	foreignCfg := testConfig
	foreignCfg.Seed = 99
	foreign, err := bounded.NewHeavyHitters(foreignCfg)
	if err != nil {
		t.Fatal(err)
	}
	foreign.Update(42, 1000)
	payload, err := foreign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_, mr2, mw2 := rawAgentConn(t, addr, "foreign") // HELLO echoes testConfig
	if err := mw2.Write(&netproto.Snapshot{Seq: 1, Gen: 1, Sketches: []wire.Blob{{
		Bit: uint32(engine.HeavyHitters), Payload: payload,
	}}}); err != nil {
		t.Fatal(err)
	}
	reply, err := mr2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := reply.(*netproto.Error); !ok || !strings.Contains(e.Msg, "Config") {
		t.Fatalf("foreign-Config snapshot answered %#v, want an ERROR naming the Config", reply)
	}

	st := agg.Stats()
	if st.SnapshotsApplied != 1 || st.SnapshotsRejected != 1 {
		t.Fatalf("SnapshotsApplied = %d, SnapshotsRejected = %d; want 1 and 1", st.SnapshotsApplied, st.SnapshotsRejected)
	}
	if len(st.Agents) != 1 || st.Agents[0].ID != "good" {
		t.Fatalf("agent table holds %+v, want only the good agent", st.Agents)
	}
	client, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if est, err := client.Estimate([]uint64{42}); err != nil || est[0] != 9 {
		t.Fatalf("estimate(42) = %v, %v; want 9 from the good agent alone", est, err)
	}
	if hh, err := client.HeavyHitters(); err != nil || len(hh) != 1 || hh[0] != 42 {
		t.Fatalf("heavy hitters = %v, %v; want [42]", hh, err)
	}
}

// TestV3SnapshotRefused: a SNAPSHOT carrying the blobs of the engine's
// format-3 golden image is refused at admission with an error naming
// the format, and nothing of it is stored.
func TestV3SnapshotRefused(t *testing.T) {
	var img wire.PartSnapshot
	if err := img.UnmarshalBinary(wiretest.V3Image(t, "../..")); err != nil {
		t.Fatal(err)
	}
	h := img.Header
	agg, err := NewAggregator(AggregatorOptions{
		Config:     bounded.Config{N: h.N, Eps: h.Eps, Alpha: h.Alpha, Seed: h.Seed},
		Structures: engine.Structures(h.Structures),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	_, err = agg.applySnapshot("site-v3", &netproto.Snapshot{Seq: 1, Gen: 1, Sketches: img.Shards[0]})
	if err == nil || !strings.Contains(err.Error(), "unsupported wire format version 3") {
		t.Fatalf("a format-3 SNAPSHOT: err = %v, want a refusal naming format 3", err)
	}
	if st := agg.Stats(); len(st.Agents) != 0 {
		t.Fatalf("the refused SNAPSHOT left %d agents stored", len(st.Agents))
	}
}

// TestForeignOptionsSnapshotRefused: an agent whose Config matches the
// fleet's but whose options do not (another SupportK) is refused at its
// SNAPSHOT: its Sync errors, nothing of it is stored, and every
// fleet-wide query keeps answering from the agents already admitted.
func TestForeignOptionsSnapshotRefused(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{
		Config: testConfig, Structures: testStructures, IOTimeout: 2 * time.Second,
	})
	defer agg.Close()
	ctx := context.Background()
	for site, id := range []string{"site-a", "site-b"} {
		a := newTestAgent(t, id, addr)
		if err := a.Ingest(testStream(2000, int64(site+1))); err != nil {
			t.Fatal(err)
		}
		if err := a.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	client, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	answers := func() string {
		t.Helper()
		hh, err1 := client.HeavyHitters()
		l1, err2 := client.L1()
		support, err3 := client.Support()
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("a fleet-wide query failed: %v", err)
		}
		return fmt.Sprint(hh, l1, support)
	}
	before := answers()

	odd, err := NewAgent(AgentOptions{
		ID: "site-odd", Aggregator: addr, Config: testConfig,
		Engine:    engine.Options{Shards: 2, Structures: testStructures, SupportK: 16},
		IOTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer odd.Close()
	if err := odd.Ingest(testStream(2000, 3)); err != nil {
		t.Fatal(err)
	}
	if err := odd.Sync(ctx); err == nil || !strings.Contains(err.Error(), "SupportSampler") {
		t.Fatalf("an agent with another SupportK synced: err = %v, want a refusal naming the SupportSampler", err)
	}
	if after := answers(); after != before {
		t.Fatalf("fleet answers moved when the mismatched agent was refused:\n%s\n%s", before, after)
	}
	if st := agg.Stats(); st.SnapshotsApplied != 2 || st.SnapshotsRejected != 1 || len(st.Agents) != 2 {
		t.Fatalf("applied %d, rejected %d, agents %+v; want 2, 1 and the two admitted sites",
			st.SnapshotsApplied, st.SnapshotsRejected, st.Agents)
	}
}

// TestHandshakeRefusals pins the admission checks: wrong config, a
// structure set the aggregator does not accept, a first frame that is
// not HELLO, a disjoint version range and a HELLO offering only
// revision 1 are all ERROR + close.
func TestHandshakeRefusals(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{
		Config: testConfig, Structures: engine.HeavyHitters,
		IOTimeout: 2 * time.Second,
	})
	defer agg.Close()

	expectRefusal := func(name string, first netproto.Msg, want ...string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		mr := netproto.NewMessageReader(conn, 0)
		if err := netproto.WriteMessage(conn, first); err != nil {
			t.Fatal(err)
		}
		reply, err := mr.Next()
		if err != nil {
			t.Fatalf("%s: reading refusal: %v", name, err)
		}
		e, ok := reply.(*netproto.Error)
		if !ok {
			t.Fatalf("%s: reply = %T, want ERROR", name, reply)
		}
		for _, w := range want {
			if !strings.Contains(e.Msg, w) {
				t.Fatalf("%s: refused with %q, want it to say %q", name, e.Msg, w)
			}
		}
		if _, err := mr.Next(); err == nil {
			t.Fatalf("%s: connection stayed open after refusal", name)
		}
	}

	wrongSeed := configEcho(testConfig)
	wrongSeed.Seed++
	expectRefusal("config mismatch", &netproto.Hello{
		Role: netproto.RoleAgent, Agent: "x",
		MinVersion: netproto.VersionMin, MaxVersion: netproto.VersionMax, Config: wrongSeed,
		Structures: uint32(engine.HeavyHitters),
	})
	expectRefusal("structures not accepted", &netproto.Hello{
		Role: netproto.RoleAgent, Agent: "x",
		MinVersion: netproto.VersionMin, MaxVersion: netproto.VersionMax, Config: configEcho(testConfig),
		Structures: uint32(engine.HeavyHitters | engine.SyncSketch),
	})
	expectRefusal("empty agent id", &netproto.Hello{
		Role: netproto.RoleAgent, MinVersion: netproto.VersionMin, MaxVersion: netproto.VersionMax,
		Config: configEcho(testConfig), Structures: uint32(engine.HeavyHitters),
	})
	expectRefusal("version range disjoint", &netproto.Hello{
		Role: netproto.RoleAgent, Agent: "x",
		MinVersion: 200, MaxVersion: 210, Config: configEcho(testConfig),
		Structures: uint32(engine.HeavyHitters),
	})
	// Revision 1's ACK carried no exponent; nothing here speaks it.
	expectRefusal("v1 HELLO", &netproto.Hello{
		Role: netproto.RoleAgent, Agent: "x",
		MinVersion: 1, MaxVersion: 1, Config: configEcho(testConfig),
		Structures: uint32(engine.HeavyHitters),
	}, "no common protocol version")
	expectRefusal("first frame not HELLO", &netproto.Ack{Seq: 1})

	// A client pushing a SNAPSHOT is a role violation.
	client, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cmr := netproto.NewMessageReader(client, 0)
	if err := netproto.WriteMessage(client, &netproto.Hello{
		Role: netproto.RoleClient, MinVersion: netproto.VersionMin, MaxVersion: netproto.VersionMax,
	}); err != nil {
		t.Fatal(err)
	}
	if reply, err := cmr.Next(); err != nil {
		t.Fatal(err)
	} else if _, ok := reply.(*netproto.Welcome); !ok {
		t.Fatalf("client handshake reply = %T, want WELCOME", reply)
	}
	if err := netproto.WriteMessage(client, &netproto.Snapshot{Seq: 1, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if reply, err := cmr.Next(); err != nil {
		t.Fatal(err)
	} else if _, ok := reply.(*netproto.Error); !ok {
		t.Fatalf("client SNAPSHOT answered %T, want ERROR", reply)
	}

	if st := agg.Stats(); st.HandshakeFailures < 6 {
		t.Fatalf("HandshakeFailures = %d, want >= 6", st.HandshakeFailures)
	}
}

// TestRunLoop exercises the timer-driven path end to end: Run ships
// ingested state without explicit Sync calls, and cancellation flushes
// the tail before returning.
func TestRunLoop(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{Config: testConfig, Structures: testStructures})
	defer agg.Close()

	a, err := NewAgent(AgentOptions{
		ID: "looper", Aggregator: addr, Config: testConfig,
		Engine:       engine.Options{Shards: 1, Structures: testStructures},
		SyncInterval: 5 * time.Millisecond,
		BackoffMin:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	if err := a.Ingest([]bounded.Update{{Index: 5, Delta: 7}}); err != nil {
		t.Fatal(err)
	}
	client, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitUntil := time.Now().Add(5 * time.Second)
	for {
		vals, err := client.Estimate([]uint64{5})
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] == 7 {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("Run never shipped the snapshot; estimate(5) = %v", vals[0])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Ingest just before cancel: the shutdown flush must deliver it.
	if err := a.Ingest([]bounded.Update{{Index: 6, Delta: 3}}); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	vals, err := client.Estimate([]uint64{6})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 3 {
		t.Fatalf("estimate(6) = %v after shutdown flush, want 3", vals[0])
	}
}

// TestSyntheticDeterminism pins the load generator: equal seeds
// produce equal streams (equal engine state), and the delete fraction
// respects the configured bound.
func TestSyntheticDeterminism(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{Config: testConfig, Structures: testStructures})
	defer agg.Close()

	run := func(id string) (*Agent, SyntheticReport) {
		a := newTestAgent(t, id, addr)
		rep, err := RunSynthetic(context.Background(), a, SyntheticConfig{
			Updates: 20_000, Seed: 3, SyncEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a, rep
	}
	a1, rep1 := run("gen-1")
	a2, rep2 := run("gen-2")

	if rep1.Inserts != rep2.Inserts || rep1.Deletes != rep2.Deletes {
		t.Fatalf("same seed, different streams: %+v vs %+v", rep1, rep2)
	}
	if rep1.Deletes == 0 {
		t.Fatal("synthetic stream generated no deletes")
	}
	if frac := float64(rep1.Deletes) / float64(rep1.Updates); frac > 0.35 {
		t.Fatalf("delete fraction %.2f exceeds the bounded-deletion budget", frac)
	}
	if rep1.Updates != 20_000 {
		t.Fatalf("updates = %d, want 20000", rep1.Updates)
	}

	l1a, err := a1.Engine().L1()
	if err != nil {
		t.Fatal(err)
	}
	l1b, err := a2.Engine().L1()
	if err != nil {
		t.Fatal(err)
	}
	if l1a != l1b {
		t.Fatalf("same seed, different engine state: L1 %v vs %v", l1a, l1b)
	}
	if st := a1.Stats(); st.SnapshotsSent == 0 {
		t.Fatal("SyncEvery never shipped a snapshot")
	}
}
