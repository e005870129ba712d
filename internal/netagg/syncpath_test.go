package netagg

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/netproto"
	"repro/internal/wire"
)

// TestSnapshotReplacesWholeAgentState: a commit replaces an agent's
// state, it does not overlay it. A site that shipped HeavyHitters and
// L1Estimator, died, and came back shipping HeavyHitters alone (an agent
// may ship a subset) must stop contributing the L1 sketch of its dead
// incarnation — at once, and after a checkpointed aggregator restart.
func TestSnapshotReplacesWholeAgentState(t *testing.T) {
	opts := AggregatorOptions{
		Config: testConfig, Structures: engine.HeavyHitters | engine.L1Estimator,
		CheckpointDir: t.TempDir(), CheckpointEvery: time.Hour,
	}
	agg, addr := startAggregator(t, opts)
	incarnation := func(structures engine.Structures, updates []bounded.Update) {
		t.Helper()
		a, err := NewAgent(AgentOptions{
			ID: "site-0", Aggregator: addr, Config: testConfig,
			Engine: engine.Options{Shards: 1, Structures: structures},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if err := a.Ingest(updates); err != nil {
			t.Fatal(err)
		}
		if err := a.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	answers := func(a *Aggregator) (l1, est float64) {
		t.Helper()
		ask := func(op netproto.QueryOp) float64 {
			ans := a.answer(&netproto.Query{Op: op, Keys: []uint64{3}})
			if ans.Err != "" {
				t.Fatal(ans.Err)
			}
			return ans.Values[0]
		}
		return ask(netproto.OpL1), ask(netproto.OpEstimate)
	}

	first := make([]bounded.Update, 5000)
	for i := range first {
		first[i] = bounded.Update{Index: uint64(i % 50), Delta: 1}
	}
	incarnation(engine.HeavyHitters|engine.L1Estimator, first)
	if l1, est := answers(agg); l1 != 5000 || est != 100 {
		t.Fatalf("first incarnation: L1 = %v, estimate(3) = %v, want 5000 and 100", l1, est)
	}
	incarnation(engine.HeavyHitters, []bounded.Update{{Index: 3, Delta: 10}})
	if l1, est := answers(agg); l1 != 0 || est != 10 {
		t.Fatalf("second incarnation ships HeavyHitters only: L1 = %v, estimate(3) = %v, want 0 (nothing of the dead incarnation) and 10", l1, est)
	}

	if err := agg.Close(); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}
	reopened, err := NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.RecoveredAgents != 1 {
		t.Fatalf("recovered %d agents, want 1", st.RecoveredAgents)
	}
	if l1, est := answers(reopened); l1 != 0 || est != 10 {
		t.Fatalf("after a checkpointed restart: L1 = %v, estimate(3) = %v, want 0 and 10", l1, est)
	}
}

// siteBlobs builds one site's three structures over a stream and
// marshals them in blob order.
func siteBlobs(t *testing.T, seed int64) []wire.Blob {
	return siteBlobsAt(t, testConfig, testStream(5000, seed))
}

func siteBlobsAt(t *testing.T, cfg bounded.Config, updates []bounded.Update) []wire.Blob {
	t.Helper()
	hh, err := bounded.NewHeavyHitters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := bounded.NewL1Estimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := bounded.NewSupportSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blobs []wire.Blob
	for _, s := range []struct {
		bit engine.Structures
		sk  bounded.Sketch
	}{{engine.HeavyHitters, hh}, {engine.L1Estimator, l1}, {engine.SupportSampler, sp}} {
		s.sk.UpdateBatch(updates)
		payload, err := s.sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, wire.Blob{Bit: uint32(s.bit), Payload: payload})
	}
	return blobs
}

// aggAnswers reads everything a client can ask of an aggregator.
func aggAnswers(t *testing.T, a *Aggregator) []*netproto.Answer {
	t.Helper()
	var out []*netproto.Answer
	for _, op := range []netproto.QueryOp{netproto.OpHeavyHitters, netproto.OpEstimate, netproto.OpL1, netproto.OpSupport} {
		ans := a.answer(&netproto.Query{Op: op, Keys: []uint64{0, 1, 2, 3, 5, 8, 13}})
		if ans.Err != "" {
			t.Fatalf("%s: %s", op, ans.Err)
		}
		out = append(out, ans)
	}
	return out
}

// scribble overwrites a buffer a decoder was handed.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// TestCommittedStateSurvivesAliasedInput: the blob payloads of all three
// containers are handed to the decoders as views of the input — a
// connection's frame buffer, a "BP" snapshot, an "AG" checkpoint — and
// nothing committed may go on pointing into it. Each input is
// overwritten the moment the decode returns; answers and re-marshalled
// bytes must equal those of a twin whose input was left alone.
func TestCommittedStateSurvivesAliasedInput(t *testing.T) {
	// SNAPSHOT: the frame the connection's reader would reuse.
	blobs := siteBlobs(t, 1)
	frame := netproto.Encode(&netproto.Snapshot{Seq: 1, Gen: 1, Sketches: blobs})
	var aggs [2]*Aggregator
	for i := range aggs {
		agg, err := NewAggregator(AggregatorOptions{Config: testConfig, Structures: testStructures})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		payload := bytes.Clone(frame)
		msg, err := netproto.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		snap := msg.(*netproto.Snapshot)
		if snap.Sketches[0].Payload[0] ^= 0xFF; bytes.Equal(payload, frame) {
			t.Fatal("SNAPSHOT payloads are copies, not views of the frame: this test no longer tests anything")
		}
		snap.Sketches[0].Payload[0] ^= 0xFF
		if _, err := agg.applySnapshot("site", snap); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			scribble(payload)
		}
		aggs[i] = agg
	}
	if got, want := aggAnswers(t, aggs[0]), aggAnswers(t, aggs[1]); !reflect.DeepEqual(got, want) {
		t.Errorf("SNAPSHOT: answers changed when the frame was overwritten after the commit:\n got %+v\nwant %+v", got, want)
	}
	for _, b := range blobs {
		again, err := aggs[0].agents["site"].sketches[engine.Structures(b.Bit)].MarshalBinary()
		if err != nil || !bytes.Equal(again, b.Payload) {
			t.Errorf("SNAPSHOT: committed %s re-marshals differently once the frame is overwritten (err %v)", engine.Structures(b.Bit), err)
		}
	}

	// "AG": the checkpoint payload a restart decodes.
	rows := []aggAgentRow{{id: "site", seq: 1, gen: 1, snapshots: 1, sketches: aggs[1].agents["site"].sketches}}
	ag, err := marshalAggState(testConfig, testStructures, rows)
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Clone(ag)
	back, err := unmarshalAggState(input, testConfig, testStructures)
	if err != nil {
		t.Fatal(err)
	}
	scribble(input)
	if again, err := marshalAggState(testConfig, testStructures, back); err != nil || !bytes.Equal(again, ag) {
		t.Errorf(`"AG": restored rows re-marshal differently once the checkpoint bytes are overwritten (err %v)`, err)
	}

	// "BP": the partitioned snapshot an engine restores from.
	src, err := engine.New(testConfig, engine.Options{Shards: 2, Structures: testStructures})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Ingest(testStream(5000, 2)); err != nil {
		t.Fatal(err)
	}
	bp, err := src.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	input = bytes.Clone(bp)
	dst, err := engine.RestoreCheckpoint(input, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	scribble(input)
	if again, err := dst.SnapshotPartitioned(); err != nil || !bytes.Equal(again, bp) {
		t.Errorf(`"BP": restored engine snapshots differently once the restore's input is overwritten (err %v)`, err)
	}
	for _, q := range []func(*engine.Engine) (any, error){
		func(e *engine.Engine) (any, error) { return e.HeavyHitters() },
		func(e *engine.Engine) (any, error) { return e.L1() },
		func(e *engine.Engine) (any, error) { return e.Support() },
	} {
		got, err1 := q(dst)
		want, err2 := q(src)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Errorf(`"BP": restored engine answers %v (%v), source %v (%v)`, got, err1, want, err2)
		}
	}
}

// TestSyncAllocatesWhatItShips: one Agent.Sync and the aggregator's
// commit of it, at BenchmarkSyncRoundTrip's geometry, allocate at most
// six times the bytes shipped — two shard clones per structure for the
// agent's merged view, one payload, one decoded copy on the aggregator,
// and nothing per nesting level, per frame or per blob on top. Counted
// process-wide, so both ends of the loopback connection are in it.
func TestSyncAllocatesWhatItShips(t *testing.T) {
	a, _, _ := benchSetup(t)
	ctx := context.Background()
	sync := func() (shipped int64, allocated uint64) {
		if err := a.Ingest([]bounded.Update{{Index: 1, Delta: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := a.Engine().Flush(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		out := a.Stats().BytesOut
		runtime.ReadMemStats(&before)
		err := a.Sync(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return a.Stats().BytesOut - out, after.TotalAlloc - before.TotalAlloc
	}
	sync() // the connection's frame buffers reach their steady size
	shipped, allocated := sync()
	if ceiling := uint64(shipped) * 6; allocated > ceiling {
		t.Fatalf("a sync shipping %d bytes allocated %d (%.2fx), ceiling 6x", shipped, allocated, float64(allocated)/float64(shipped))
	}
}
