package netagg

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	bounded "repro"
	"repro/engine"
)

// benchSetup stands up a loopback aggregator + one agent with phase-1
// state committed, so each benchmark iteration measures steady-state
// work, not cold starts.
func benchSetup(b testing.TB) (*Agent, *Aggregator, string) {
	b.Helper()
	agg, err := NewAggregator(AggregatorOptions{Config: testConfig, Structures: testStructures})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go agg.Serve(ln)
	b.Cleanup(func() { agg.Close() })

	a, err := NewAgent(AgentOptions{
		ID: "bench", Aggregator: ln.Addr().String(), Config: testConfig,
		Engine:     engine.Options{Shards: 2, Structures: testStructures},
		BackoffMin: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })

	if err := a.Ingest(testStream(40_000, 17)); err != nil {
		b.Fatal(err)
	}
	if err := a.Sync(context.Background()); err != nil {
		b.Fatal(err)
	}
	return a, agg, ln.Addr().String()
}

// BenchmarkSyncRoundTrip measures one full incremental sync cycle over
// a real loopback socket: a small ingest to move the generation, then
// marshal every enabled structure, frame, ship, decode, commit, ACK.
func BenchmarkSyncRoundTrip(b *testing.B) {
	a, _, _ := benchSetup(b)
	tick := []bounded.Update{{Index: 1, Delta: 1}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Ingest(tick); err != nil {
			b.Fatal(err)
		}
		if err := a.Sync(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := a.Stats()
	if st.SnapshotsSent > 0 {
		perSnapshot := float64(st.BytesOut) / float64(st.SnapshotsSent)
		b.SetBytes(int64(perSnapshot))
		b.ReportMetric(perSnapshot, "bytes/snapshot")
	}
}

// BenchmarkSyncSkip measures the idle tick: generation unchanged, so
// the sync must cost one atomic load and no I/O at all — the number
// that justifies running agents on a tight interval.
func BenchmarkSyncSkip(b *testing.B) {
	a, _, _ := benchSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Sync(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := a.Stats(); st.SnapshotsSkipped < int64(b.N) {
		b.Fatalf("skipped %d of %d idle syncs", st.SnapshotsSkipped, b.N)
	}
}

// BenchmarkQueryRoundTrip measures a client point-estimate batch over
// the socket against the aggregator's cached merged view.
func BenchmarkQueryRoundTrip(b *testing.B) {
	_, _, addr := benchSetup(b)
	c, err := DialClient(addr, ClientOptions{Config: testConfig})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Estimate(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewRebuild measures the fleet-wide read after a commit: one
// agent's heavy-hitters blob is decoded and committed, and the read that
// follows refreshes the merged view over every agent. The plain rows
// materialize the view — what reading its tracker, e.g. its encoding,
// costs — and the answer/ rows ask the heavy-hitters query, as clients
// do. rate1 keeps the union exact (each site's mass shrinks with the
// fleet so the union stays below 2S) and aligned/past2S is a fleet
// whose agents all adopted the union's exponent from their ACKs, as
// agents do: there a commit shifts the view's table by new − old, the
// materialized read re-ranks the candidates and the query answers over
// them without writing the view's tracker, so the cost follows the
// changed agents and the candidates, not agents × state (B/op: the
// decode's hash scratch and the read's; the decode refills a retired
// set). past2S has every agent at rate 1 and their union past 2S — a
// fleet whose agents ignore the ACK's exponent — where each commit
// leaves the view to a rebuild that also halves the accumulator and a
// copy of every later agent's table. Every lap is one commit
// generation: on the answer/ rows its query is one view refresh
// (ViewBuilds moves by b.N) — a rebuild or an answer over the shifted
// table; on the plain rows a lap either rebuilds (one refresh) or
// re-ranks a shifted view, which is the materialization's own and no
// query's refresh (ViewBuilds + ViewShifts move by b.N). halvings/op
// counts the build's own CSSS halvings
// (repro_netagg_view_align_halvings_total) and shifts/op the commits
// folded in by a shift.
func BenchmarkViewRebuild(b *testing.B) {
	for _, read := range []string{"", "answer/"} {
		for _, regime := range []struct {
			name    string
			cfg     bounded.Config
			mass    int
			aligned bool
		}{{"rate1", testConfig, 10_000, false}, {"past2S", sampledConfig, 700, false}, {"aligned/past2S", sampledConfig, 700, true}} {
			for _, agents := range []int{4, 16, 64} {
				b.Run(fmt.Sprintf("%s%s/agents=%d", read, regime.name, agents), func(b *testing.B) {
					agg, err := NewAggregator(AggregatorOptions{Config: regime.cfg})
					if err != nil {
						b.Fatal(err)
					}
					defer agg.Close()
					refresh := func() {
						if read != "" {
							askHH(b, agg)
							return
						}
						agg.qmu.Lock()
						defer agg.qmu.Unlock()
						if _, err := agg.materializedView(); err != nil {
							b.Fatal(err)
						}
					}
					mass := regime.mass
					if regime.name == "rate1" {
						mass = min(mass, 200_000/agents) // 2S = 217 600 at testConfig
					}
					blobs := rate1Sites(b, agg, regime.cfg, agents, mass)
					if regime.aligned {
						blobs = alignSites(b, agg, blobs)
					}
					refresh()
					before := agg.Stats()
					halvings := agg.viewHalvings.Load()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						commitHH(b, agg, "site-0", uint64(i+3), blobs[0])
						refresh()
					}
					b.StopTimer()
					st := agg.Stats()
					builds, shifts := st.ViewBuilds-before.ViewBuilds, st.ViewShifts-before.ViewShifts
					if read == "" {
						builds += shifts
					}
					if builds != int64(b.N) {
						b.Fatalf("%d view refreshes and %d shifts in %d laps", st.ViewBuilds-before.ViewBuilds, shifts, b.N)
					}
					b.ReportMetric(float64(agg.viewHalvings.Load()-halvings)/float64(b.N), "halvings/op")
					b.ReportMetric(float64(shifts)/float64(b.N), "shifts/op")
				})
			}
		}
	}
}

// alignSites has every committed site adopt the exponent the last
// commit's ACK carried: each blob is thinned to it and committed again.
func alignSites(b *testing.B, agg *Aggregator, blobs [][]byte) [][]byte {
	p := int(agg.unionExponent)
	out := make([][]byte, len(blobs))
	for site, blob := range blobs {
		sk, err := bounded.UnmarshalSketch(blob)
		if err != nil {
			b.Fatal(err)
		}
		if err := sk.(*bounded.HeavyHitters).RaiseSampleExponent(p); err != nil {
			b.Fatal(err)
		}
		if out[site], err = sk.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
		commitHH(b, agg, fmt.Sprintf("site-%d", site), 2, out[site])
	}
	return out
}

// BenchmarkSyntheticIngest measures the load generator feeding the
// agent's engine (no network in the loop; Sync is driven separately).
func BenchmarkSyntheticIngest(b *testing.B) {
	a, err := NewAgent(AgentOptions{
		ID: "bench-gen", Aggregator: "127.0.0.1:1", Config: testConfig,
		Engine: engine.Options{Shards: 2, Structures: testStructures},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })
	ctx := context.Background()
	b.ResetTimer()
	var updates int
	for i := 0; i < b.N; i++ {
		rep, err := RunSynthetic(ctx, a, SyntheticConfig{Updates: 100_000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		updates += rep.Updates
	}
	b.StopTimer()
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/s")
}
