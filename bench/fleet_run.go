package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/engine"
	"repro/internal/netagg"
)

// fleet is four site agents, the aggregator they sync to over loopback
// TCP, and one query client. One goroutine drives all of it, so every
// connection is used strictly one at a time and a round's work is the
// same in every run.
type fleet struct {
	sp      *spec
	agg     *netagg.Aggregator
	served  chan error
	agents  []*netagg.Agent
	streams []*stream
	client  *netagg.Client
	rounds  int64 // rounds driven so far, warm-up included
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	for _, a := range f.agents {
		a.Close()
	}
	if f.agg != nil {
		f.agg.Close()
		<-f.served
	}
}

func buildFleet(sp *spec, parts []*segment, w *warmup) (_ *fleet, err error) {
	f := &fleet{sp: sp, served: make(chan error, 1)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	agg, err := netagg.NewAggregator(netagg.AggregatorOptions{Config: sp.cfg, Structures: sp.structures})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.agg = agg
	go func() { f.served <- agg.Serve(ln) }()
	addr := ln.Addr().String()
	for i, p := range parts {
		a, err := netagg.NewAgent(netagg.AgentOptions{
			ID: fmt.Sprintf("site-%d", i), Aggregator: addr, Config: sp.cfg,
			Engine: engine.Options{Shards: sp.shards, Structures: sp.structures},
		})
		if err != nil {
			return nil, err
		}
		f.agents = append(f.agents, a)
		f.streams = append(f.streams, &stream{seg: p})
	}
	if f.client, err = netagg.DialClient(addr, netagg.ClientOptions{Config: sp.cfg}); err != nil {
		return nil, err
	}
	m := &meter{}
	for l := 0; l < sp.warmLaps; l++ {
		w.lap(func() error {
			for r := 0; r < sp.lapCalls; r++ {
				f.round(nil, -1, m, nil)
			}
			return nil
		})
	}
	if m.failed > 0 {
		return nil, fmt.Errorf("fleet warm-up: %w", m.firstErr)
	}
	return f, nil
}

// roundResult is what one round measured beyond the meter's samples.
type roundResult struct {
	ingestS float64 // time inside the round's Agent.Ingest calls
	updates int
}

// round is the fleet's unit of work: every agent ingests
// fleetRoundCalls batches of its substream, every agent syncs, then the
// client asks for the heavy hitters, a batch of point estimates and L1.
func (f *fleet) round(tr *track, lap int, m *meter, keys []uint64) roundResult {
	ctx := context.Background()
	var res roundResult
	root := tr.begin("round", -1, lap)
	t0 := time.Now()
	for i, a := range f.agents {
		for c := 0; c < fleetRoundCalls; c++ {
			b := f.streams[i].next(f.sp.batch)
			id := tr.begin("netagg.Agent.Ingest", root, lap)
			m.op(a.Ingest(b))
			tr.end(id)
			res.updates += len(b)
		}
	}
	ingested := time.Now()
	res.ingestS = ingested.Sub(t0).Seconds()
	for _, a := range f.agents {
		id := tr.begin("netagg.Agent.Sync", root, lap)
		m.op(a.Sync(ctx))
		tr.end(id)
	}
	id := tr.begin("netagg.Client.HeavyHitters", root, lap)
	t := time.Now()
	_, err := f.client.HeavyHitters()
	answered := time.Now()
	tr.end(id)
	m.op(err)
	m.global = append(m.global, answered.Sub(t).Seconds())
	m.fresh = append(m.fresh, answered.Sub(ingested).Seconds())
	if keys != nil {
		id = tr.begin("netagg.Client.Estimate", root, lap)
		t = time.Now()
		_, err = f.client.Estimate(keys)
		m.point = append(m.point, time.Since(t).Seconds())
		tr.end(id)
		m.op(err)
	}
	id = tr.begin("netagg.Client.L1", root, lap)
	_, err = f.client.L1()
	tr.end(id)
	m.op(err)
	tr.end(root)
	f.rounds++
	return res
}

// checkIdentity compares the aggregator's exact counters with what the
// driver did: every round made one non-idle sync per agent, and each
// must have been applied.
func (f *fleet) checkIdentity() error {
	want := f.rounds * int64(len(f.agents))
	if got := f.agg.Stats().SnapshotsApplied; got != want {
		return invalidf("%s: aggregator applied %d snapshots, %d non-idle syncs were made", f.sp.name, got, want)
	}
	var sent int64
	for _, a := range f.agents {
		sent += a.Stats().SnapshotsSent
	}
	if sent != want {
		return invalidf("%s: agents count %d ACKed snapshots, %d non-idle syncs were made", f.sp.name, sent, want)
	}
	return nil
}

type clientQuerier struct{ c *netagg.Client }

func (q clientQuerier) HeavyHitters() ([]uint64, error)        { return q.c.HeavyHitters() }
func (q clientQuerier) Estimate(k []uint64) ([]float64, error) { return q.c.Estimate(k) }
func (q clientQuerier) L1() (float64, error)                   { return q.c.L1() }
func (q clientQuerier) L0() (float64, error)                   { return 0, engine.ErrNotEnabled }
func (q clientQuerier) Support() ([]uint64, error)             { return q.c.Support() }

// syncTotals sums the agents' sync counters.
func (f *fleet) syncTotals() (st netagg.AgentStats) {
	for _, a := range f.agents {
		s := a.Stats()
		st.FramesOut += s.FramesOut
		st.BytesOut += s.BytesOut
		st.BytesIn += s.BytesIn
		st.SnapshotsSent += s.SnapshotsSent
	}
	return st
}

// runFleet runs the fleet-sync workload, cut into blocks like an engine
// workload: each block is a fresh fleet (timed: a set-up sample) driven
// for its share of the laps. The last block's fleet is checked through
// the client against the exact reference and, traced, probed.
func runFleet(sp *spec, o runOpts) (*outcome, error) {
	sp = sp.scaled(o.scale)
	seg, sets, err := prepare(sp, o.seed)
	if err != nil {
		return nil, err
	}
	parts := seg.split(fleetAgents, fleetRoundCalls*sp.batch)
	for i, p := range parts {
		if len(p.updates) == 0 {
			return nil, invalidf("%s: site %d has no updates", sp.name, i)
		}
	}
	y := newYardstick()
	heap0 := liveHeapMB()

	m := &meter{}
	var tr *track
	if o.trace {
		tr = newTrack("driver", time.Now())
	}
	blocks, perBlock := sp.blockPlan(o.seconds)
	var (
		f                   *fleet
		traced, ingestRates []float64
		lc                  ledgerCounts
		sync, agg           struct{ frames, bytesOut, bytesIn, sent, views, applied int64 }
		windowRounds        int64
	)
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for b := 0; b < blocks; b++ {
		if f != nil {
			f.close()
		}
		err := m.setup(y, func(w *warmup) (err error) {
			f, err = buildFleet(sp, parts, w)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := f.checkIdentity(); err != nil {
			return nil, err
		}
		c0, a0, g0, e0 := readCounters(), f.syncTotals(), f.agg.Stats(), f.engineStats()
		for i := 0; i < perBlock; i++ {
			l := b*perBlock + i
			var lt *track
			if o.trace && l%2 == 1 {
				lt = tr
			}
			var updates int
			var ingestS float64
			start := time.Now()
			for r := 0; r < sp.lapCalls; r++ {
				res := f.round(lt, l, m, sets[int(f.rounds)%len(sets)])
				updates += res.updates
				ingestS += res.ingestS
			}
			d := time.Since(start).Seconds()
			lc.wall += d
			rate, adjRate := m.endLap(y, updates, d)
			if lt == nil {
				m.rates = append(m.rates, rate)
				m.adjRates = append(m.adjRates, adjRate)
			} else {
				traced = append(traced, rate)
			}
			ingestRates = append(ingestRates, float64(updates)/ingestS)
			windowRounds += int64(sp.lapCalls)
			if err := f.checkIdentity(); err != nil {
				return nil, err
			}
		}
		lc.addProcess(c0, readCounters())
		for i, s1 := range f.engineStats() {
			lc.addEngine(i, e0[i], s1)
		}
		a1, g1 := f.syncTotals(), f.agg.Stats()
		sync.frames += a1.FramesOut - a0.FramesOut
		sync.bytesOut += a1.BytesOut - a0.BytesOut
		sync.sent += a1.SnapshotsSent - a0.SnapshotsSent
		agg.bytesIn += g1.BytesIn - g0.BytesIn
		agg.views += g1.ViewBuilds - g0.ViewBuilds
		agg.applied += g1.SnapshotsApplied - g0.SnapshotsApplied
	}
	windowUpdates := float64(windowRounds) * float64(fleetAgents*fleetRoundCalls*sp.batch)

	ref := newReference(f.streams...)
	ans, err := checkAnswers(sp, ref, m, clientQuerier{f.client}, sets)
	if err != nil {
		return nil, err
	}
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failed operation: %v\n", m.firstErr)
	}
	var spaceBits int64
	for _, a := range f.agents {
		b, err := a.Engine().SpaceBits()
		m.op(err)
		spaceBits += b
	}
	heap1 := liveHeapMB()
	runtime.KeepAlive(y) // resident at both heap readings, so not in their difference

	out := &outcome{metrics: map[string]float64{}}
	bytesPerRound := float64(sync.bytesOut) / float64(windowRounds)
	if !o.trace {
		out.attempted, out.failed = m.attempted, m.failed
		out.metrics = endToEndMetrics(m, ans, bytesPerRound, spaceBits, heap1-heap0)
		out.notes = timingNotes(m)
		return out, nil
	}

	pl := out.metrics
	for _, d := range perLayer {
		pl[d.Name] = 0
	}
	benchNotes(pl, m, traced, perBlock*blocks)
	pl["bench.generator_mupd_s"] = generatorCeiling(f.streams[0], sp)
	lc.emit(pl) // one shard per agent engine: the four agents are the shards
	kernelProvenance(pl)
	ing := summarize(tr.durations("netagg.Agent.Ingest"))
	pl["engine.ingest_call_us.p50"] = ing.P50 * 1e6
	pl["engine.ingest_call_us.p99"] = ing.P99 * 1e6

	rounds := float64(windowRounds)
	pl["netproto.frames_out"] = float64(sync.frames) / rounds
	pl["netproto.bytes_out"] = bytesPerRound
	pl["netproto.bytes_in"] = float64(agg.bytesIn) / rounds
	pl["wire.snapshot_bytes"] = float64(sync.bytesOut) / float64(sync.sent)
	pl["netagg.sync_bytes_per_update"] = float64(sync.bytesOut) / windowUpdates
	sy := summarize(tr.durations("netagg.Agent.Sync"))
	pl["netagg.sync_ms.p50"] = sy.P50 * 1e3
	pl["netagg.sync_ms.p99"] = sy.P99 * 1e3
	pl["netagg.first_query_ms.p50"] = median(tr.durations("netagg.Client.HeavyHitters")) * 1e3
	pl["netagg.cached_query_us.p50"] = median(tr.durations("netagg.Client.Estimate")) * 1e6
	pl["netagg.view_builds"] = float64(agg.views)
	pl["netagg.snapshots_applied"] = float64(agg.applied)
	pl["netagg.agent_ingest_updates_per_s"] = median(ingestRates)
	ans.emit(pl)

	// Idle syncs: the generation has not moved since the last ACK.
	const idleSyncs = 1000
	t := time.Now()
	for i := 0; i < idleSyncs; i++ {
		m.op(f.agents[0].Sync(context.Background()))
	}
	pl["netagg.sync_skip_ns"] = float64(time.Since(t).Nanoseconds()) / idleSyncs

	S := sp.sampleBudget()
	var pEnd int
	for _, st := range f.streams {
		pEnd = max(pEnd, sampleExponent(st.sent(), S))
	}
	pl["csss.sample_exponent.end"] = float64(pEnd)

	if err := stageProbes(sp, parts[0], func(kind engine.Structures) ([]byte, error) { return f.agents[0].Engine().Snapshot(kind) }, sp.shards, pl); err != nil {
		return nil, err
	}
	out.attempted, out.failed = m.attempted, m.failed
	tf := &traceFile{Workload: sp.name, Ledger: ledger(tr), Counters: pl, Tracks: []*track{tr}, Provenance: newProvenance(sp, o)}
	if out.tracePath, err = writeTrace(o.outDir, tf); err != nil {
		return nil, err
	}
	return out, nil
}

// engineStats snapshots every agent engine's counters.
func (f *fleet) engineStats() []engine.Stats {
	out := make([]engine.Stats, len(f.agents))
	for i, a := range f.agents {
		out[i] = a.Engine().Stats()
	}
	return out
}
