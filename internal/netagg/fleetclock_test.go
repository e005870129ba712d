package netagg

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/gen"
	"repro/internal/netproto"
	"repro/internal/sweep"
	"repro/internal/wire"
)

// TestAckCarriesUnionExponent: after every commit the exponent the ACK
// carries is the one the next merged-view build reaches. The commits
// take the union past 2S and then 4S, replace a site with a smaller one
// (the running position goes down as well as up) and store a site
// already thinned past the schedule (the stored exponent, not the
// position, sets P then). An aggregator recovered from a checkpoint
// resumes the same clock.
func TestAckCarriesUnionExponent(t *testing.T) {
	dir := t.TempDir()
	agg, err := NewAggregator(AggregatorOptions{Config: sampledConfig, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	seqs := map[string]uint64{}
	var crossed []int
	for step, c := range []struct {
		site, mass, raise int
	}{
		{0, 700, 0}, {1, 700, 0}, {2, 700, 0}, // 2100 units: past 2S = 2048
		{3, 700, 0}, {0, 1500, 0}, {1, 1500, 0}, // 4400: past 4S
		{3, 300, 0},  // 4000: back under 4S
		{2, 200, 3},  // a site at 2^-3 with little mass
		{2, 2500, 0}, // its replacement at its own rate again
	} {
		hh, err := bounded.NewHeavyHitters(sampledConfig)
		if err != nil {
			t.Fatal(err)
		}
		hh.UpdateBatch(testStream(60_000, int64(step+1))[:c.mass])
		if err := hh.RaiseSampleExponent(c.raise); err != nil {
			t.Fatal(err)
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("site-%d", c.site)
		seqs[id]++
		p := commitHH(t, agg, id, seqs[id], blob)
		askHH(t, agg)
		if view := agg.Stats().ViewSampleExponent; p != view {
			t.Fatalf("commit %d (site-%d, %d updates): ACK exponent %d, the build after it reached %d", step, c.site, c.mass, p, view)
		}
		crossed = append(crossed, p)
	}
	if want := []int{0, 0, 1, 1, 1, 2, 1, 3, 2}; !slices.Equal(crossed, want) {
		t.Fatalf("ACK exponents %v, want %v", crossed, want)
	}
	// A stale resend is ACKed with the union's exponent as it stands.
	exp, err := agg.applySnapshot("site-0", &netproto.Snapshot{Seq: 1, Gen: 1, Sketches: []wire.Blob{}})
	if err != nil || exp != 2 {
		t.Fatalf("stale resend ACKed with exponent %d (%v), want the union's 2", exp, err)
	}
	agg.Close() // writes the final checkpoint
	back, err := NewAggregator(AggregatorOptions{Config: sampledConfig, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.unionPosition != agg.unionPosition || back.unionExponent != 2 {
		t.Fatalf("recovered clock at position %d, exponent %d; committed one at %d, 2", back.unionPosition, back.unionExponent, agg.unionPosition)
	}
}

// TestAlignedFleetRebuildHalvesNothing: four agents over loopback whose
// union passes 2S, 4S, 8S and 16S while each holds a quarter of it.
// Every agent adopts the exponent its ACK carries, so a round that
// starts with every agent at the union's exponent, and in which the
// union crosses no boundary, rebuilds the view without one halving
// (repro_netagg_view_align_halvings_total does not move). A crossing
// round halves, and so may the round after it, for the agents whose
// ACK in the crossing round came before the crossing commit.
func TestAlignedFleetRebuildHalvesNothing(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{Config: sampledConfig})
	defer agg.Close()
	stream := testStream(60_000, 5)
	bySite := keyPartitioned.cut(stream[:18_000])
	agents := make([]*Agent, splitSites)
	for i := range agents {
		a, err := NewAgent(AgentOptions{
			ID: fmt.Sprintf("site-%d", i), Aggregator: addr, Config: sampledConfig,
			Engine:     engine.Options{Shards: 2},
			BackoffMin: time.Millisecond, IOTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents[i] = a
	}
	client, err := DialClient(addr, ClientOptions{Config: sampledConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const rounds = 20
	view, aligned, crossings := 0, 0, 0
	for r := 0; r < rounds; r++ {
		atUnion := true
		for i, a := range agents {
			atUnion = atUnion && a.Stats().FleetExponent == view
			us := bySite[i]
			if err := a.Ingest(us[r*len(us)/rounds : (r+1)*len(us)/rounds]); err != nil {
				t.Fatal(err)
			}
			if err := a.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		before := agg.viewHalvings.Load()
		if _, err := client.HeavyHitters(); err != nil {
			t.Fatal(err)
		}
		halvings := agg.viewHalvings.Load() - before
		p := agg.Stats().ViewSampleExponent
		for i, a := range agents {
			fleet := a.Stats().FleetExponent
			if fleet > p || p == view && fleet != p {
				t.Fatalf("round %d: site-%d was last ACKed exponent %d, the view went from %d to %d", r, i, fleet, view, p)
			}
			for s, sh := range a.Engine().Stats().PerShard {
				if sh.SampleExponent != fleet {
					t.Fatalf("round %d: site-%d's shard %d samples at exponent %d, its last ACK carried %d", r, i, s, sh.SampleExponent, fleet)
				}
			}
		}
		switch {
		case p > view:
			crossings++
			if halvings == 0 {
				t.Fatalf("round %d: the union crossed to exponent %d and the rebuild halved nothing", r, p)
			}
		case atUnion:
			aligned++
			if halvings != 0 {
				t.Fatalf("round %d: every agent entered at the union's exponent %d, yet the rebuild halved %d times", r, p, halvings)
			}
		}
		view = p
	}
	t.Logf("%d rounds: %d crossed a boundary, %d started aligned and halved nothing", rounds, crossings, aligned)
	if crossings != 4 || aligned < rounds/2 {
		t.Fatalf("%d crossing rounds (want 4: 2S, 4S, 8S, 16S) and %d aligned ones in %d", crossings, aligned, rounds)
	}
}

// TestFleetClockSameDistribution is the sampled-regime judge of the
// fleet clock (ROADMAP items 2d, 3a and 10): over 32 fixed seeds, a
// fleet of four engines — each commits its snapshot in process, takes
// the exponent the ACK would carry and thins to it — against one engine
// fed the whole stream, under three splits: key-partitioned, and the
// two under which no site's substream is strict (nonStrictSplits,
// Barkay–Porat–Shalem's warning about sampling such streams).
//
// Count-valued, the view's exponent must equal the whole-stream
// engine's on every seed. Real-valued, a seed fails when a probe
// estimate misses its frequency by more than eps·‖f‖₁ or an eps-heavy
// key is missing from the heavy-hitter set; each side's failure count
// must stay under the Bin(32, 0.1) threshold at a 1e-3 false alarm,
// and the two counts must not be separable. A raise that doubles the
// scale without thinning fails the real-valued half; an aggregator
// that ACKs one level too coarse fails the count-valued one.
func TestFleetClockSameDistribution(t *testing.T) {
	const (
		seeds  = 32
		delta  = 0.1
		alarm  = 1e-3
		rounds = 6
	)
	cfg := sampledConfig
	probes := []uint64{0, 1, 2, 3, 7, 31, 100, 4096, cfg.N - 1}
	limit := sweep.Threshold(seeds, delta, alarm)
	for _, sp := range append([]split{keyPartitioned}, nonStrictSplits...) {
		t.Run(sp.name, func(t *testing.T) {
			var fleetFails, wholeFails int
			for _, seed := range sweep.Seeds(seeds) {
				stream := gen.BoundedDeletion(gen.Config{
					N: cfg.N, Items: 9000, Alpha: cfg.Alpha, Zipf: 1.5, Shuffle: true, Seed: seed,
				}).Updates
				whole := wholeStreamHH(t, cfg, stream)
				fleet := fleetHH(t, cfg, sp.cut(stream), rounds)
				if fp, wp := fleet.SampleExponent(), whole.SampleExponent(); fp != wp || wp == 0 {
					t.Fatalf("seed %d: the fleet's view samples at exponent %d, the whole-stream engine at %d", seed, fp, wp)
				}
				truth := bounded.NewTracker(cfg.N)
				for _, u := range stream {
					truth.Update(u)
				}
				if missesBand(truth, fleet, cfg.Eps, probes) {
					fleetFails++
				}
				if missesBand(truth, whole, cfg.Eps, probes) {
					wholeFails++
				}
			}
			t.Logf("failing seeds of %d: fleet %d, whole stream %d (threshold %d)", seeds, fleetFails, wholeFails, limit)
			if fleetFails >= limit || wholeFails >= limit {
				t.Fatalf("failing seeds: fleet %d, whole stream %d, threshold %d", fleetFails, wholeFails, limit)
			}
			if sweep.Separable(fleetFails, wholeFails, alarm) {
				t.Fatalf("the fleet fails on %d seeds and the whole-stream engine on %d: not the same distribution", fleetFails, wholeFails)
			}
		})
	}
}

// wholeStreamHH is a two-shard engine's merged heavy-hitters state over
// the whole stream, as its Snapshot ships it.
func wholeStreamHH(t *testing.T, cfg bounded.Config, stream []bounded.Update) *bounded.HeavyHitters {
	t.Helper()
	e, err := engine.New(cfg, engine.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Ingest(stream); err != nil {
		t.Fatal(err)
	}
	return refSketch(t, e, engine.HeavyHitters).(*bounded.HeavyHitters)
}

// fleetHH runs one two-shard engine per site for the given rounds: each
// ingests its next share, commits its snapshot to an aggregator in
// process, and adopts the exponent the ACK would carry. It returns the
// aggregator's merged heavy-hitters view.
func fleetHH(t *testing.T, cfg bounded.Config, bySite [][]bounded.Update, rounds int) *bounded.HeavyHitters {
	t.Helper()
	agg, err := NewAggregator(AggregatorOptions{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	sites := make([]*engine.Engine, len(bySite))
	for i := range sites {
		if sites[i], err = engine.New(cfg, engine.Options{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		defer sites[i].Close()
	}
	for r := 0; r < rounds; r++ {
		for i, e := range sites {
			us := bySite[i]
			if err := e.Ingest(us[r*len(us)/rounds : (r+1)*len(us)/rounds]); err != nil {
				t.Fatal(err)
			}
			blob, err := e.Snapshot(engine.HeavyHitters)
			if err != nil {
				t.Fatal(err)
			}
			p := commitHH(t, agg, fmt.Sprintf("site-%d", i), uint64(r+1), blob)
			if err := e.RaiseSampleExponent(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	agg.qmu.Lock()
	defer agg.qmu.Unlock()
	hh, err := agg.materializedView()
	if err != nil {
		t.Fatal(err)
	}
	return hh
}

// missesBand reports whether hh answers outside Theorem 1's band on
// the stream truth summarizes: an estimate of a probe or of a key
// holding eps/4 of the mass off by more than eps·‖f‖₁, or an eps-heavy
// key missing from the heavy-hitter set.
func missesBand(truth *bounded.Tracker, hh *bounded.HeavyHitters, eps float64, probes []uint64) bool {
	var l1 float64
	for _, f := range truth.F {
		l1 += math.Abs(float64(f))
	}
	found := hh.HeavyHitters()
	keys := slices.Clone(probes)
	for k, f := range truth.F {
		a := math.Abs(float64(f))
		if a >= eps*l1 && !slices.Contains(found, k) {
			return true
		}
		if a >= eps*l1/4 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if math.Abs(hh.Estimate(k)-float64(truth.F[k])) > eps*l1 {
			return true
		}
	}
	return false
}
