package engine

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	bounded "repro"
	"repro/internal/obs"
	"repro/internal/wire/wiretest"
)

// TestStatsExactWorkload asserts Stats() counters against a
// hand-counted workload at 1/2/4/8 shards: every counter is exact, not
// sampled.
func TestStatsExactWorkload(t *testing.T) {
	s, _ := fig1Stream(11)
	const chunk = 777
	const batchSize = 256
	total := len(s.Updates)
	ingestCalls := (total + chunk - 1) / chunk

	for _, shards := range []int{1, 2, 4, 8} {
		e, err := New(testCfg, Options{Shards: shards, BatchSize: batchSize})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < total; off += chunk {
			end := off + chunk
			if end > total {
				end = total
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}

		st := e.Stats()
		if st.Shards != shards || len(st.PerShard) != shards {
			t.Fatalf("shards=%d: Stats reports %d shards, %d per-shard rows", shards, st.Shards, len(st.PerShard))
		}
		if st.SnapshotBuilds != 0 {
			t.Errorf("shards=%d: %d snapshot builds before any merged query", shards, st.SnapshotBuilds)
		}

		if st.IngestCalls != int64(ingestCalls) {
			t.Errorf("shards=%d: IngestCalls = %d, want %d", shards, st.IngestCalls, ingestCalls)
		}
		if st.IngestedKeys != int64(total) {
			t.Errorf("shards=%d: IngestedKeys = %d, want %d", shards, st.IngestedKeys, total)
		}
		if st.IngestLatency.Count != int64(ingestCalls) {
			t.Errorf("shards=%d: IngestLatency.Count = %d, want %d", shards, st.IngestLatency.Count, ingestCalls)
		}
		// After a flush, every batch handed to an inbox has been
		// applied: the sent/applied identity is exact, and the applied
		// keys sum to the ingested keys.
		var applied, keys int64
		for _, ss := range st.PerShard {
			applied += ss.BatchesApplied
			keys += ss.KeysApplied
			if ss.QueueDepth != 0 {
				t.Errorf("shards=%d: nonzero queue depth %d after flush", shards, ss.QueueDepth)
			}
			if ss.QueueCap < 1 {
				t.Errorf("shards=%d: queue cap %d", shards, ss.QueueCap)
			}
		}
		if applied != st.BatchesSent {
			t.Errorf("shards=%d: %d batches applied != %d sent", shards, applied, st.BatchesSent)
		}
		if keys != int64(total) {
			t.Errorf("shards=%d: shards applied %d keys, want %d", shards, keys, total)
		}
		if shards == 1 {
			// Single shard: hand-countable batch total — one full
			// hand-off per batchSize keys, plus the flush remainder.
			want := int64(total / batchSize)
			if total%batchSize != 0 {
				want++
			}
			if st.BatchesSent != want {
				t.Errorf("shards=1: BatchesSent = %d, want %d", st.BatchesSent, want)
			}
		}
		if st.Flushes != 1 || st.FlushLatency.Count != 1 {
			t.Errorf("shards=%d: Flushes = %d (latency count %d), want 1", shards, st.Flushes, st.FlushLatency.Count)
		}

		// Queries: 3 routed points, 1 routed batch,
		// 2 merged (second hits the warm view cache — still a merged
		// query, but not a second snapshot build; one shard builds none).
		for _, i := range []uint64{1, 2, 3} {
			if _, err := e.Estimate(i); err != nil {
				t.Fatal(err)
			}
		}
		big := make([]uint64, 24)
		for j := range big {
			big[j] = uint64(j)
		}
		if _, err := e.EstimateBatch(big); err != nil {
			t.Fatal(err)
		}
		if _, err := e.HeavyHitters(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.HeavyHitters(); err != nil {
			t.Fatal(err)
		}

		st = e.Stats()
		if st.SnapshotBuilds != views(shards, 1) {
			t.Errorf("shards=%d: SnapshotBuilds = %d, want %d", shards, st.SnapshotBuilds, views(shards, 1))
		}
		if shards == 1 {
			checkOneShardReads(t, e, 2)
		}
		if st.PointQueries != 3 || st.PointLatency.Count != 3 {
			t.Errorf("shards=%d: PointQueries = %d (latency count %d), want 3", shards, st.PointQueries, st.PointLatency.Count)
		}
		if st.BatchedQueries != 1 || st.BatchedLatency.Count != 1 {
			t.Errorf("shards=%d: BatchedQueries = %d (latency count %d), want 1", shards, st.BatchedQueries, st.BatchedLatency.Count)
		}
		if st.MergedQueries != 2 || st.MergedLatency.Count != 2 {
			t.Errorf("shards=%d: MergedQueries = %d (latency count %d), want 2", shards, st.MergedQueries, st.MergedLatency.Count)
		}
		if st.SnapshotLatency.Count != views(shards, 1) {
			t.Errorf("shards=%d: SnapshotLatency.Count = %d, want %d", shards, st.SnapshotLatency.Count, views(shards, 1))
		}

		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		st = e.Stats() // Stats works on a closed engine
		if st.CloseLatency.Count != 1 {
			t.Errorf("shards=%d: CloseLatency.Count = %d, want 1", shards, st.CloseLatency.Count)
		}
	}
}

// TestStatsSmallBatchCutover pins that EstimateBatch has no small-batch
// cutover: a four-key batch takes the same planned fan-out as a large
// one, so it is one batched query and no point query.
func TestStatsSmallBatchCutover(t *testing.T) {
	e := must(New(testCfg, Options{Shards: 2, BatchSize: 128}))
	defer e.Close()
	if err := e.Ingest([]bounded.Update{{Index: 1, Delta: 3}, {Index: 2, Delta: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EstimateBatch([]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BatchedQueries != 1 || st.BatchedLatency.Count != 1 {
		t.Errorf("BatchedQueries = %d (latency count %d), want 1", st.BatchedQueries, st.BatchedLatency.Count)
	}
	if st.PointQueries != 0 {
		t.Errorf("PointQueries = %d, want 0", st.PointQueries)
	}
}

// TestStatsHammer interleaves producers, routed point and batched
// queries, merged queries, Stats snapshots and registry scrapes; under
// -race it is the concurrency proof for the whole recording path, and
// the final flushed totals must still be exact.
func TestStatsHammer(t *testing.T) {
	e := must(New(testCfg, Options{Shards: 4, BatchSize: 64, Queue: 2}))
	reg := obs.NewRegistry()
	unregister := e.ExposeMetrics(reg, "hammer")
	defer unregister()

	s, _ := fig1Stream(23)
	const producers = 4
	chunkOf := func(p int) []bounded.Update {
		per := len(s.Updates) / producers
		lo := p * per
		hi := lo + per
		if p == producers-1 {
			hi = len(s.Updates)
		}
		return s.Updates[lo:hi]
	}
	var total int64
	for p := 0; p < producers; p++ {
		total += int64(len(chunkOf(p)))
	}

	// Readers run until the producers finish.
	idxs := make([]uint64, 40)
	for j := range idxs {
		idxs[j] = uint64(j * 13)
	}
	stop := wiretest.Readers(t,
		func() error { // routed point + batched queries
			if _, err := e.Estimate(7); err != nil {
				return err
			}
			_, err := e.EstimateBatch(idxs)
			return err
		},
		func() error { // merged queries force snapshot rebuilds mid-ingest
			_, err := e.HeavyHitters()
			return err
		},
		func() error { // Stats snapshots and registry scrapes race the writers
			_ = e.Stats()
			reg.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
			return nil
		},
	)
	var producerWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		producerWG.Add(1)
		go func(p int) {
			defer producerWG.Done()
			mine := chunkOf(p)
			for off := 0; off < len(mine); off += 100 {
				end := off + 100
				if end > len(mine) {
					end = len(mine)
				}
				if err := e.Ingest(mine[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	producerWG.Wait()
	stop()

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.IngestedKeys != total {
		t.Errorf("IngestedKeys = %d, want %d", st.IngestedKeys, total)
	}
	var keys, applied int64
	for _, ss := range st.PerShard {
		keys += ss.KeysApplied
		applied += ss.BatchesApplied
	}
	if keys != total {
		t.Errorf("shards applied %d keys, want %d", keys, total)
	}
	if applied != st.BatchesSent {
		t.Errorf("%d batches applied != %d sent", applied, st.BatchesSent)
	}

	// The scrape surface renders the per-shard and engine metrics.
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`repro_engine_ingested_keys_total{instance="hammer"}`,
		`repro_engine_shard_batches_applied_total{instance="hammer",shard="3"}`,
		`repro_engine_query_seconds_count{instance="hammer",path="merged"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	unregister()
	rec = httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "hammer") {
		t.Error("unregister left engine metrics on the registry")
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardSampleExponent: each shard publishes its heavy hitters
// structure's CSSS exponent — after every applied batch and after a
// restore — so Stats and the scrape surface say per shard which regime
// it is in, where the process-wide repro_csss_sample_exponent gauge
// says only who set it last. Shard 0 is fed past 2S, shard 1 and a twin
// engine stay below it; an engine opened from the checkpoint reports the
// restored exponents before its first batch.
func TestShardSampleExponent(t *testing.T) {
	cfg := bounded.Config{N: 1 << 20, Eps: 0.1, Alpha: 1, Seed: 9} // S = 2100
	feed := func(e *Engine, shard, units int) {
		t.Helper()
		var us []bounded.Update
		for i := uint64(0); len(us) < units; i++ {
			if e.ShardOf(i) == shard {
				us = append(us, bounded.Update{Index: i, Delta: 1})
			}
		}
		if err := e.Ingest(us); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	exponents := func(e *Engine) [2]int {
		st := e.Stats()
		return [2]int{st.PerShard[0].SampleExponent, st.PerShard[1].SampleExponent}
	}
	want := [2]int{1, 0}
	e := must(New(cfg, Options{Shards: 2, Structures: HeavyHitters, BatchSize: 256}))
	defer e.Close()
	twin := must(New(cfg, Options{Shards: 2, Structures: HeavyHitters, BatchSize: 256}))
	defer twin.Close()
	feed(e, 0, 4300)
	feed(e, 1, 4100)
	feed(twin, 0, 4100)
	if got := exponents(e); got != want {
		t.Errorf("shard 0 past 2S, shard 1 below: exponents %v, want %v", got, want)
	}
	if got := exponents(twin); got != [2]int{} {
		t.Errorf("twin below 2S: exponents %v, want zeros", got)
	}
	reg := obs.NewRegistry()
	defer e.ExposeMetrics(reg, "exp")()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if row := `repro_engine_shard_csss_exponent{instance="exp",shard="0"} 1`; !strings.Contains(rec.Body.String(), row) {
		t.Errorf("scrape missing %q", row)
	}
	snap, err := e.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	opened, err := RestoreCheckpoint(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got := exponents(opened); got != want {
		t.Errorf("restored engine before its first batch: exponents %v, want %v", got, want)
	}
}

// TestShardL1Level: each shard publishes the oldest live level j* of
// its L1 estimator beside the CSSS exponent — after every applied batch
// and after a restore. Shard 0 is fed far past s^2 units (base 16), so
// its answer comes from a sampled level; shard 1 stays below s and
// answers from level 0, its exact count.
func TestShardL1Level(t *testing.T) {
	cfg := bounded.Config{N: 1 << 10, Eps: 0.9, Alpha: 1, Seed: 9} // RecommendedBase clamps to 16
	opts := Options{Shards: 2, Structures: L1Estimator, L1Delta: 0.9, BatchSize: 64}
	e := must(New(cfg, opts))
	defer e.Close()
	var us []bounded.Update
	for i := uint64(0); len(us) < 300; i++ {
		if d := int64(1000); e.ShardOf(i) == 0 {
			us = append(us, bounded.Update{Index: i, Delta: d})
		} else if len(us) < 5 {
			us = append(us, bounded.Update{Index: i, Delta: 1})
		}
	}
	if err := e.Ingest(us); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	levels := func(e *Engine) [2]int {
		st := e.Stats()
		return [2]int{st.PerShard[0].L1Level, st.PerShard[1].L1Level}
	}
	want := [2]int{e.sets[0][1].(*bounded.L1Estimator).SampleLevel(), 0}
	if got := levels(e); got != want || want[0] < 1 {
		t.Errorf("levels %v, the shards' estimators %v (shard 0 must sample)", got, want)
	}
	reg := obs.NewRegistry()
	defer e.ExposeMetrics(reg, "l1")()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if row := fmt.Sprintf(`repro_engine_shard_l1_level{instance="l1",shard="0"} %d`, want[0]); !strings.Contains(rec.Body.String(), row) {
		t.Errorf("scrape missing %q", row)
	}
	snap, err := e.SnapshotPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	opened, err := RestoreCheckpoint(snap, Options{L1Delta: opts.L1Delta})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got := levels(opened); got != want {
		t.Errorf("restored engine before its first batch: levels %v, want %v", got, want)
	}
}

// TestRaiseSampleExponent: a raise thins every shard's heavy hitters to
// the given exponent behind the runs still pending (the merged view
// then holds every ingested unit at that rate), moves the generation
// and republishes the per-shard gauges; a raise no shard is below, one
// out of the wire's range and one on an engine without heavy hitters
// change nothing.
func TestRaiseSampleExponent(t *testing.T) {
	cfg := bounded.Config{N: 1 << 20, Eps: 0.1, Alpha: 1, Seed: 9} // S = 2100
	e := must(New(cfg, Options{Shards: 2, Structures: HeavyHitters, BatchSize: 256}))
	defer e.Close()
	us := make([]bounded.Update, 1000)
	for i := range us {
		us[i] = bounded.Update{Index: uint64(i % 97), Delta: 1}
	}
	if err := e.Ingest(us); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	if err := e.RaiseSampleExponent(2); err != nil {
		t.Fatal(err)
	}
	if e.Generation() == gen {
		t.Fatal("a raise that thinned left the generation alone")
	}
	for s, sh := range e.Stats().PerShard {
		if sh.SampleExponent != 2 {
			t.Fatalf("shard %d at exponent %d after a raise to 2", s, sh.SampleExponent)
		}
	}
	blob := must(e.Snapshot(HeavyHitters))
	hh := must(bounded.UnmarshalSketch(blob)).(*bounded.HeavyHitters)
	if hh.SampleExponent() != 2 || hh.SamplePosition() != int64(len(us)) {
		t.Fatalf("merged view at exponent %d over %d units, want 2 over %d", hh.SampleExponent(), hh.SamplePosition(), len(us))
	}
	gen = e.Generation()
	for _, p := range []int{0, 2} {
		if err := e.RaiseSampleExponent(p); err != nil || e.Generation() != gen {
			t.Fatalf("a raise to %d, which no shard is below: err %v, generation %d -> %d", p, err, gen, e.Generation())
		}
	}
	if err := e.RaiseSampleExponent(61); err == nil || e.Generation() != gen || e.Stats().PerShard[0].SampleExponent != 2 {
		t.Fatalf("a raise past the wire's exponents: err %v, generation %d -> %d", err, gen, e.Generation())
	}
	l1 := must(New(cfg, Options{Shards: 2, Structures: L1Estimator}))
	defer l1.Close()
	if err := l1.RaiseSampleExponent(3); err != nil || l1.Generation() != 0 {
		t.Fatalf("an engine without heavy hitters: err %v, generation %d", err, l1.Generation())
	}
	e.Close()
	if err := e.RaiseSampleExponent(5); err == nil {
		t.Fatal("a raise on a closed engine succeeded")
	}
}

// TestRaiseSampleExponentRacesIngestAndReads: raises to a growing
// exponent interleave with a producer and with global and routed reads
// — for the race detector, and for the invariant that a raise lands
// between batches: the merged view holds every ingested unit.
func TestRaiseSampleExponentRacesIngestAndReads(t *testing.T) {
	cfg := bounded.Config{N: 1 << 20, Eps: 0.1, Alpha: 1, Seed: 9}
	e := must(New(cfg, Options{Shards: 2, Structures: HeavyHitters, BatchSize: 64}))
	defer e.Close()
	stop := wiretest.Readers(t,
		func() error { _, err := e.HeavyHitters(); return err },
		func() error {
			_, err := e.EstimateBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
			return err
		},
	)
	batch := make([]bounded.Update, 100)
	for round := 0; round < 40; round++ {
		for i := range batch {
			batch[i] = bounded.Update{Index: uint64(round*len(batch) + i), Delta: 1}
		}
		if err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := e.RaiseSampleExponent(round / 10); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	hh := must(bounded.UnmarshalSketch(must(e.Snapshot(HeavyHitters)))).(*bounded.HeavyHitters)
	if hh.SampleExponent() != 3 || hh.SamplePosition() != 40*int64(len(batch)) {
		t.Fatalf("merged view at exponent %d over %d units, want 3 over %d", hh.SampleExponent(), hh.SamplePosition(), 40*len(batch))
	}
}
