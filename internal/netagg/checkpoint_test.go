package netagg

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/ckpt"
	"repro/internal/netproto"
	"repro/internal/wire"
)

// TestAgentCheckpointResume pins the restart-without-replay path: a
// restarted agent restores its engine from disk, reports it, and
// carries state equal to what the first incarnation checkpointed.
// Unchanged-generation checkpoints write nothing.
func TestAgentCheckpointResume(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{Config: testConfig, Structures: testStructures})
	defer agg.Close()

	dir := t.TempDir()
	opts := AgentOptions{
		ID: "durable", Aggregator: addr, Config: testConfig,
		Engine:        engine.Options{Shards: 2, Structures: testStructures},
		CheckpointDir: dir,
		BackoffMin:    time.Millisecond,
	}
	a1, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a1.RestoredFromCheckpoint() {
		t.Fatal("cold start claims a restored checkpoint")
	}
	if err := a1.Ingest(testStream(10_000, 29)); err != nil {
		t.Fatal(err)
	}
	if err := a1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := a1.Stats().CheckpointsWritten; got != 1 {
		t.Fatalf("CheckpointsWritten = %d, want 1", got)
	}
	// Unchanged generation: a second checkpoint is a no-op.
	if err := a1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := a1.Stats().CheckpointsWritten; got != 1 {
		t.Fatalf("unchanged-generation checkpoint wrote (count %d), want skip", got)
	}
	wantL1, err := a1.Engine().L1()
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	a2, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if !a2.RestoredFromCheckpoint() {
		t.Fatal("restart with a checkpoint on disk started cold")
	}
	gotL1, err := a2.Engine().L1()
	if err != nil {
		t.Fatal(err)
	}
	if gotL1 != wantL1 {
		t.Fatalf("restored engine L1 = %v, want %v", gotL1, wantL1)
	}
	// The restored engine syncs like any live agent.
	if err := a2.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	client, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	netL1, err := client.L1()
	if err != nil {
		t.Fatal(err)
	}
	if netL1 != wantL1 {
		t.Fatalf("aggregator L1 after restored-agent sync = %v, want %v", netL1, wantL1)
	}
}

// TestAggregatorCheckpointValidation pins the recovery admission
// checks: a checkpoint written under one parameterization refuses to
// load into an aggregator with a different config or a narrower
// structure set, and loads exactly under the original one.
func TestAggregatorCheckpointValidation(t *testing.T) {
	dir := t.TempDir()
	opts := AggregatorOptions{
		Config: testConfig, Structures: engine.HeavyHitters,
		CheckpointDir: dir, CheckpointEvery: time.Hour,
	}
	a1, err := NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := &netproto.Snapshot{Seq: 3, Gen: 5, Sketches: []wire.Blob{{
		Bit:     uint32(engine.HeavyHitters),
		Payload: hhBlob(t, []bounded.Update{{Index: 42, Delta: 9}, {Index: 7, Delta: 2}}),
	}}}
	if _, err := a1.applySnapshot("site-a", snap); err != nil {
		t.Fatal(err)
	}
	if err := a1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	wrongCfg := opts
	wrongCfg.Config.Seed++
	if _, err := NewAggregator(wrongCfg); err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("config-mismatched recovery: err = %v, want config mismatch", err)
	}
	narrower := opts
	narrower.Structures = engine.L1Estimator
	// The refusal names the structures, not their bit patterns.
	if _, err := NewAggregator(narrower); err == nil ||
		!strings.Contains(err.Error(), "holds structures HeavyHitters the aggregator no longer accepts (accepts L1Estimator)") {
		t.Fatalf("narrower-structures recovery: err = %v, want structures refusal", err)
	}

	// A checkpoint carrying a blob built from a foreign Config is
	// refused on open, whatever its header echoes: crafted here with the
	// aggregator's own header around a Seed-99 sketch.
	foreignCfg := testConfig
	foreignCfg.Seed = 99
	foreign, err := bounded.NewHeavyHitters(foreignCfg)
	if err != nil {
		t.Fatal(err)
	}
	foreign.Update(42, 9)
	crafted, err := marshalAggState(testConfig, engine.HeavyHitters, []aggAgentRow{{
		id: "site-x", seq: 1, gen: 1, snapshots: 1,
		sketches: map[engine.Structures]bounded.Sketch{engine.HeavyHitters: foreign},
	}})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := opts
	poisoned.CheckpointDir = t.TempDir()
	store, err := ckpt.Open(poisoned.CheckpointDir, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(crafted); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAggregator(poisoned); err == nil || !strings.Contains(err.Error(), "Config") {
		t.Fatalf("checkpoint holding a foreign-Config blob: err = %v, want a Config refusal", err)
	}

	a2, err := NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	st := a2.Stats()
	if st.RecoveredAgents != 1 || len(st.Agents) != 1 {
		t.Fatalf("recovered %d agents (%d tracked), want 1", st.RecoveredAgents, len(st.Agents))
	}
	if got := st.Agents[0]; got.ID != "site-a" || got.Seq != 3 || got.Gen != 5 {
		t.Fatalf("recovered watermark %+v, want site-a seq=3 gen=5", got)
	}
	ans := a2.answer(&netproto.Query{Op: netproto.OpEstimate, Keys: []uint64{42, 7, 100}})
	if ans.Err != "" {
		t.Fatal(ans.Err)
	}
	if ans.Values[0] != 9 || ans.Values[1] != 2 || ans.Values[2] != 0 {
		t.Fatalf("recovered estimates = %v, want [9 2 0]", ans.Values)
	}
}

// TestRecoveredAgentsPassLiveAdmission: a restored agent table goes
// through the admission a live SNAPSHOT gets. A checkpoint holding a
// strict and a general heavy-hitters agent under the same Config —
// crafted, since no live aggregator admits the pair — fails
// NewAggregator with an error naming both agents and the kind, instead
// of restoring two agents whose every HeavyHitters query errors.
func TestRecoveredAgentsPassLiveAdmission(t *testing.T) {
	rows := make([]aggAgentRow, 0, 2)
	for i, strict := range []bool{true, false} {
		hh, err := bounded.NewHeavyHitters(testConfig, bounded.WithStrict(strict))
		if err != nil {
			t.Fatal(err)
		}
		hh.Update(42, 9)
		rows = append(rows, aggAgentRow{
			id: fmt.Sprintf("site-%c", 'a'+i), seq: 1, gen: 1, snapshots: 1,
			sketches: map[engine.Structures]bounded.Sketch{engine.HeavyHitters: hh},
		})
	}
	crafted, err := marshalAggState(testConfig, engine.HeavyHitters, rows)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := ckpt.Open(dir, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(crafted); err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(AggregatorOptions{
		Config: testConfig, Structures: engine.HeavyHitters,
		CheckpointDir: dir, CheckpointEvery: time.Hour,
	})
	if err == nil {
		defer agg.Close()
		ans := agg.answer(&netproto.Query{Op: netproto.OpHeavyHitters})
		t.Fatalf("mixed strict/general checkpoint restored %d agents (HeavyHitters query: %q), want a refusal",
			agg.Stats().RecoveredAgents, ans.Err)
	}
	for _, want := range []string{`"site-a"`, `"site-b"`, "HeavyHitters"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mixed strict/general checkpoint: err = %v, want it to name %s", err, want)
		}
	}
}

// TestAgentCheckpointAcrossCPUCountChange: an agent configured with
// Shards 0 ("one per CPU") that checkpointed on a 4-CPU host and
// restarts on a 2-CPU one reopens the checkpoint's own 4-shard topology
// — routed reads stay shard-local (no merged view is ever built) and
// answer exactly as before the restart. An explicit shard count that
// disagrees with the checkpoint, or a different Config, fails NewAgent.
func TestAgentCheckpointAcrossCPUCountChange(t *testing.T) {
	opts := AgentOptions{
		ID: "elastic", Aggregator: "127.0.0.1:1", Config: testConfig,
		Engine:        engine.Options{Structures: testStructures},
		CheckpointDir: t.TempDir(),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a1, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := a1.Engine().Shards(); got != 4 {
		t.Fatalf("cold start under GOMAXPROCS(4) built %d shards, want 4", got)
	}
	if err := a1.Ingest(testStream(10_000, 31)); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 200)
	for j := range keys {
		keys[j] = uint64(j * 131)
	}
	type answers struct {
		est     []float64
		probes  []bool
		support []uint64
	}
	routedAnswers := func(e *engine.Engine) answers {
		t.Helper()
		var got answers
		var err error
		if got.est, err = e.EstimateBatch(keys); err != nil {
			t.Fatal(err)
		}
		if got.probes, err = e.ProbeBatch(keys); err != nil {
			t.Fatal(err)
		}
		if got.support, err = e.Support(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := routedAnswers(a1.Engine())
	if err := a1.Close(); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(2)
	a2, err := NewAgent(opts)
	if err != nil {
		t.Fatalf("restart under GOMAXPROCS(2): %v", err)
	}
	defer a2.Close()
	if !a2.RestoredFromCheckpoint() {
		t.Fatal("restart with a checkpoint on disk started cold")
	}
	if got := a2.Engine().Shards(); got != 4 {
		t.Fatalf("restart under GOMAXPROCS(2) built %d shards, want the checkpoint's 4", got)
	}
	if got := routedAnswers(a2.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatal("routed reads answer differently after the restart")
	}
	if n := a2.Engine().Stats().SnapshotBuilds; n != 0 {
		t.Fatalf("restarted agent built %d merged views on routed reads, want 0", n)
	}

	explicit := opts
	explicit.Engine.Shards = 2
	if _, err := NewAgent(explicit); err == nil ||
		!strings.Contains(err.Error(), "4 shards") || !strings.Contains(err.Error(), "engine has 2") {
		t.Fatalf("explicit 2 shards over a 4-shard checkpoint: %v, want an error naming both counts", err)
	}
	otherCfg := opts
	otherCfg.Config.Seed++
	if _, err := NewAgent(otherCfg); err == nil || !strings.Contains(err.Error(), "Config") {
		t.Fatalf("different Config over the checkpoint: %v, want a Config refusal", err)
	}
}

// TestAggregatorRejectsMistaggedBlob: a snapshot that files one
// structure's payload under another's bit is refused — by wire kind
// against the engine's table — and the refusal names both kinds.
func TestAggregatorRejectsMistaggedBlob(t *testing.T) {
	agg, err := NewAggregator(AggregatorOptions{Config: testConfig, Structures: testStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	_, err = agg.applySnapshot("site-a", &netproto.Snapshot{Seq: 1, Gen: 1, Sketches: []wire.Blob{{
		Bit:     uint32(engine.SupportSampler),
		Payload: hhBlob(t, []bounded.Update{{Index: 42, Delta: 9}}),
	}}})
	if err == nil || !strings.Contains(err.Error(), "tagged SupportSampler holds a HeavyHitters") {
		t.Fatalf("mistagged blob: %v, want an error saying the SupportSampler tag holds a HeavyHitters", err)
	}
	if got := agg.Stats().SnapshotsApplied; got != 0 {
		t.Fatalf("refused snapshot counted as applied (%d)", got)
	}
}
