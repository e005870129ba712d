package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	bounded "repro"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/wire/wiretest"
)

// fig1Stream is the Figure 1 heavy-hitters workload the acceptance
// criteria are stated against.
func fig1Stream(seed int64) (*stream.Stream, stream.Vector) {
	s := gen.BoundedDeletion(gen.Config{
		N: 1 << 16, Items: 60000, Alpha: 8, Zipf: 1.5, Seed: seed,
	})
	return s, s.Materialize()
}

var testCfg = bounded.Config{N: 1 << 16, Eps: 0.05, Alpha: 8, Seed: 42}

// must unwraps a constructor result (test Configs are always valid).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestEngineMatchesSingleWriter is the differential test of the
// acceptance criteria: the engine's merged answers must be identical to
// a single-writer structure fed the same stream. The default heavy
// hitters parameters keep the CSSS in its exact (rate-1) regime on this
// workload, so the comparison is exact, not approximate.
func TestEngineMatchesSingleWriter(t *testing.T) {
	s, _ := fig1Stream(7)

	single := must(bounded.NewHeavyHitters(testCfg))
	single.UpdateBatch(s.Updates)

	for _, shards := range []int{1, 2, 4, 8} {
		e, err := New(testCfg, Options{Shards: shards, BatchSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		// Feed in uneven chunks to exercise pending-buffer handoff.
		for off := 0; off < len(s.Updates); off += 777 {
			end := off + 777
			if end > len(s.Updates) {
				end = len(s.Updates)
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := e.HeavyHitters()
		if err != nil {
			t.Fatal(err)
		}
		want := single.HeavyHitters()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d heavy hitters, single-writer found %d (got %v want %v)",
				shards, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: heavy hitter %d is %d, single-writer has %d", shards, i, got[i], want[i])
			}
		}
		// Point estimates route to the OWNING shard: each must agree
		// exactly with a single-writer structure fed only that shard's
		// substream (the columnar scatter and the scalar reference see
		// the same updates in the same order).
		refs := make([]*bounded.HeavyHitters, shards)
		for r := range refs {
			refs[r] = must(bounded.NewHeavyHitters(testCfg))
		}
		for _, u := range s.Updates {
			refs[e.ShardOf(u.Index)].Update(u.Index, u.Delta)
		}
		for _, i := range want {
			ge, err := e.Estimate(i)
			if err != nil {
				t.Fatal(err)
			}
			if se := refs[e.ShardOf(i)].Estimate(i); ge != se {
				t.Fatalf("shards=%d: estimate of %d is %v, owning-shard reference says %v", shards, i, ge, se)
			}
		}
		// At one shard the owning shard IS the whole stream.
		if shards == 1 {
			for _, i := range want {
				ge, err := e.Estimate(i)
				if err != nil {
					t.Fatal(err)
				}
				if se := single.Estimate(i); ge != se {
					t.Fatalf("shards=1: estimate of %d is %v, single-writer says %v", i, ge, se)
				}
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEnginePointQuerySnapshotFree asserts the snapshot-free contract:
// point queries never pay the flush barrier + merged-view rebuild —
// the engine's snapshot-build counter must not move on Estimate, only
// on global queries against a stale cache.
func TestEnginePointQuerySnapshotFree(t *testing.T) {
	s, _ := fig1Stream(29)
	e, err := New(testCfg, Options{Shards: 4, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Ingest(s.Updates); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().SnapshotBuilds; n != 0 {
		t.Fatalf("snapshot builds after ingest = %d, want 0", n)
	}
	for i := uint64(0); i < 64; i++ {
		if _, err := e.Estimate(i); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Stats().SnapshotBuilds; n != 0 {
		t.Fatalf("snapshot builds after 64 point queries = %d, want 0", n)
	}
	// A global query pays one rebuild…
	if _, err := e.HeavyHitters(); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().SnapshotBuilds; n != 1 {
		t.Fatalf("snapshot builds after one global query = %d, want 1", n)
	}
	// …point queries after more ingest still trigger none, and the
	// cached view stays valid for global queries until ingest.
	if err := e.Ingest(s.Updates[:1000]); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if _, err := e.Estimate(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.HeavyHitters(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.HeavyHitters(); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().SnapshotBuilds; n != 2 {
		t.Fatalf("snapshot builds = %d, want 2 (one per post-ingest global query burst)", n)
	}
}

// TestEnginePointQuerySeesIngestedUpdates: Estimate reflects every
// update whose Ingest returned, including runs still sitting in the
// shard's pending buffer (they are handed off, not flushed globally).
func TestEnginePointQuerySeesIngestedUpdates(t *testing.T) {
	e, err := New(testCfg, Options{Shards: 4, BatchSize: 1 << 20}) // nothing auto-flushes
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Ingest([]bounded.Update{{Index: 7, Delta: 5}, {Index: 7, Delta: 2}}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("Estimate(7) = %v before any flush, want 7", got)
	}
	if n := e.Stats().SnapshotBuilds; n != 0 {
		t.Fatalf("snapshot builds = %d, want 0", n)
	}
}

// TestEngineConcurrentProducers drives one engine from many producer
// goroutines — the -race deployment shape. Hash partitioning makes the
// final per-shard state independent of producer interleaving in the
// sketches' exact regime, so answers must still match the single
// writer.
func TestEngineConcurrentProducers(t *testing.T) {
	s, _ := fig1Stream(11)
	single := must(bounded.NewHeavyHitters(testCfg))
	single.UpdateBatch(s.Updates)

	e, err := New(testCfg, Options{Shards: 4, BatchSize: 256, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 8
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := p * 500; off < len(s.Updates); off += producers * 500 {
				end := off + 500
				if end > len(s.Updates) {
					end = len(s.Updates)
				}
				if err := e.Ingest(s.Updates[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := e.HeavyHitters()
	if err != nil {
		t.Fatal(err)
	}
	want := single.HeavyHitters()
	if len(got) != len(want) {
		t.Fatalf("concurrent producers: got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concurrent producers: got %v want %v", got, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentQueriers runs producers AND queriers against one
// engine at the same time: queries serialize on the shared cached
// merged view (its query paths mutate scratch), so this must be
// race-clean and every interim answer must be a subset of the support.
func TestEngineConcurrentQueriers(t *testing.T) {
	s, v := fig1Stream(17)
	e, err := New(testCfg, Options{Shards: 4, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	query := func() error {
		hh, err := e.HeavyHitters()
		if err != nil {
			return err
		}
		for _, i := range hh {
			if v[i] == 0 {
				return fmt.Errorf("interim heavy hitter %d outside final support", i)
			}
		}
		return nil
	}
	stop := wiretest.Readers(t, query, query, query, query)
	var producers sync.WaitGroup
	for p := 0; p < 2; p++ {
		p := p
		producers.Add(1)
		go func() {
			defer producers.Done()
			for off := p * 1000; off < len(s.Updates); off += 2000 {
				end := off + 1000
				if end > len(s.Updates) {
					end = len(s.Updates)
				}
				if err := e.Ingest(s.Updates[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	producers.Wait()
	stop()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFullSuite enables every structure and sanity-checks each
// query path against ground truth.
func TestEngineFullSuite(t *testing.T) {
	s, v := fig1Stream(13)
	cfg := bounded.Config{N: 1 << 16, Eps: 0.1, Alpha: 8, Seed: 5}
	e, err := New(cfg, Options{
		Shards: 3,
		Structures: HeavyHitters | L1Estimator | L0Estimator |
			L1Sampler | SupportSampler | L2HeavyHitters | SyncSketch,
		SamplerCopies: 8,
		SupportK:      16,
		SyncCapacity:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Ingest(s.Updates); err != nil {
		t.Fatal(err)
	}

	l1, err := e.L1()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(v.L1()); math.Abs(l1-want) > 0.5*want {
		t.Errorf("L1 estimate %v too far from %v", l1, want)
	}
	l0, err := e.L0()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(v.L0()); math.Abs(l0-want) > 0.5*want {
		t.Errorf("L0 estimate %v too far from %v", l0, want)
	}
	hh, err := e.HeavyHitters()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range hh {
		if v[i] == 0 {
			t.Errorf("heavy hitter %d not in support", i)
		}
	}
	if res, ok, err := e.Sample(); err != nil {
		t.Fatal(err)
	} else if ok && v[res.Index] == 0 {
		t.Errorf("sampled %d outside support", res.Index)
	}
	sup, err := e.Support()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sup {
		if v[i] == 0 {
			t.Errorf("support sample %d outside support", i)
		}
	}
	if _, err := e.L2HeavyHitters(); err != nil {
		t.Fatal(err)
	}
	if bits, err := e.SpaceBits(); err != nil || bits <= 0 {
		t.Errorf("SpaceBits = %d, %v", bits, err)
	}

	// The merged sync sketch must round-trip against a single-writer
	// sketch of the same stream: the difference decodes to empty.
	syn, err := e.SyncSketch()
	if err != nil {
		t.Fatal(err)
	}
	other := must(bounded.NewSyncSketch(cfg, bounded.WithCapacity(64)))
	other.UpdateBatch(s.Updates)
	wire, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.SubRemote(wire); err != nil {
		t.Fatal(err)
	}
	diff, err := syn.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 0 {
		t.Errorf("merged sync sketch differs from single-writer sketch: %v", diff)
	}
}

// TestEngineNotEnabled: querying a structure that was not selected
// reports ErrNotEnabled rather than panicking.
func TestEngineNotEnabled(t *testing.T) {
	e, err := New(testCfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.L1(); err == nil {
		t.Fatal("L1 on a heavy-hitters-only engine should fail")
	}
	if _, _, err := e.Sample(); err == nil {
		t.Fatal("Sample on a heavy-hitters-only engine should fail")
	}
}

// TestEngineRejectsBadConfig: New surfaces Config.Validate errors
// instead of panicking.
func TestEngineRejectsBadConfig(t *testing.T) {
	bad := []bounded.Config{
		{N: 1, Eps: 0.1, Alpha: 2, Seed: 1},
		{N: 1 << 50, Eps: 0.1, Alpha: 2, Seed: 1},
		{N: 1 << 10, Eps: 0, Alpha: 2, Seed: 1},
		{N: 1 << 10, Eps: 0.1, Alpha: 0.5, Seed: 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, Options{}); err == nil {
			t.Errorf("config %+v accepted, want validation error", cfg)
		}
	}
}

// TestEngineClosed: every entry point reports closure.
func TestEngineClosed(t *testing.T) {
	e, err := New(testCfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest([]bounded.Update{{Index: 1, Delta: 1}}); err == nil {
		t.Error("Ingest on closed engine should fail")
	}
	if _, err := e.HeavyHitters(); err == nil {
		t.Error("query on closed engine should fail")
	}
	if err := e.Close(); err != nil {
		t.Error("double Close should be a no-op")
	}
}
