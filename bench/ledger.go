package main

import (
	"math"
	"time"

	"repro/engine"
	"repro/internal/core"
	"repro/internal/hash"
)

// counters is the process-wide counter state read at window boundaries.
type counters struct {
	arena core.BatchArenaStats
	disp  hash.DispatchStats
}

func readCounters() counters {
	return counters{arena: core.ArenaStats(), disp: hash.KernelDispatchStats()}
}

// ledgerCounts sums, over the timed windows of a run's blocks, the
// exact counters the layers expose. A "shard" is an engine shard; in
// the fleet, where every agent's engine has one, it is an agent.
type ledgerCounts struct {
	arenaGets, arenaMisses                   int64
	vector, scalar                           int64
	bucketSigns, rangeCalls, gather, median7 int64
	busyNS, keys                             []int64
	batches, stalls, builds, merged, batched int64
	wall                                     float64 // seconds of timed laps
}

func (c *ledgerCounts) addProcess(a, b counters) {
	c.arenaGets += b.arena.Gets - a.arena.Gets
	c.arenaMisses += b.arena.Misses - a.arena.Misses
	sa, va := a.disp.Totals()
	sb, vb := b.disp.Totals()
	c.scalar += sb - sa
	c.vector += vb - va
	c.bucketSigns += b.disp.BucketSignsScalar + b.disp.BucketSignsVector - a.disp.BucketSignsScalar - a.disp.BucketSignsVector
	c.rangeCalls += b.disp.RangeScalar + b.disp.RangeVector - a.disp.RangeScalar - a.disp.RangeVector
	c.gather += b.disp.GatherScalar + b.disp.GatherVector - a.disp.GatherScalar - a.disp.GatherVector
	c.median7 += b.disp.MedianScalar + b.disp.MedianVector - a.disp.MedianScalar - a.disp.MedianVector
}

// addEngine adds one engine's window; its shards land at index
// firstShard and up.
func (c *ledgerCounts) addEngine(firstShard int, a, b engine.Stats) {
	for i := range b.PerShard {
		for len(c.keys) <= firstShard+i {
			c.keys = append(c.keys, 0)
			c.busyNS = append(c.busyNS, 0)
		}
		c.keys[firstShard+i] += b.PerShard[i].KeysApplied - a.PerShard[i].KeysApplied
		c.busyNS[firstShard+i] += b.PerShard[i].BusyNanos - a.PerShard[i].BusyNanos
		c.batches += b.PerShard[i].BatchesApplied - a.PerShard[i].BatchesApplied
	}
	c.stalls += b.BackpressureStalls - a.BackpressureStalls
	c.builds += b.SnapshotBuilds - a.SnapshotBuilds
	c.merged += b.MergedQueries - a.MergedQueries
	c.batched += b.BatchedQueries - a.BatchedQueries
}

func (c *ledgerCounts) emit(pl map[string]float64) {
	pl["core.arena_gets"] = float64(c.arenaGets)
	pl["core.arena_misses"] = float64(c.arenaMisses)
	pl["hash.vector_calls"] = float64(c.vector)
	pl["hash.scalar_calls"] = float64(c.scalar)
	if t := c.vector + c.scalar; t > 0 {
		pl["hash.vector_call_share"] = float64(c.vector) / float64(t)
	}
	pl["hash.bucket_signs_calls"] = float64(c.bucketSigns)
	pl["hash.range_calls"] = float64(c.rangeCalls)
	pl["hash.gather_calls"] = float64(c.gather)
	pl["hash.median_calls"] = float64(c.median7)
	var busyMax, busySum float64
	for _, ns := range c.busyNS {
		share := float64(ns) / 1e9 / c.wall
		busyMax = math.Max(busyMax, share)
		busySum += share
	}
	n := float64(len(c.keys))
	pl["shard.busy_share.mean"] = busySum / n
	pl["shard.busy_share.max"] = busyMax
	pl["shard.send_stalls"] = float64(c.stalls)
	if t := sumOf(c.keys); t > 0 {
		pl["shard.key_skew"] = float64(maxOf(c.keys)) / (float64(t) / n)
	}
	pl["shard.batches_applied"] = float64(c.batches)
	pl["engine.snapshot_builds"] = float64(c.builds)
	pl["engine.merged_queries"] = float64(c.merged)
	pl["engine.batched_queries"] = float64(c.batched)
}

// benchNotes fills the ledger rows that describe the harness itself.
// tracedRates are the traced laps' raw rates: traced and untraced laps
// alternate, so the two medians saw the same host and compare as they are.
func benchNotes(pl map[string]float64, m *meter, tracedRates []float64, laps int) {
	pl["bench.trace_overhead_share"] = 1 - median(tracedRates)/median(m.rates)
	pl["bench.host_slowdown"] = median(m.slow)
	pl["bench.raw_setup_s"] = median(m.setupS)
	pl["bench.raw_updates_per_s"] = median(m.rates)
	pl["bench.lap_updates_per_s.min"] = sorted(m.rates)[0]
	pl["bench.lap_updates_per_s.max"] = sorted(m.rates)[len(m.rates)-1]
	pl["bench.raw_global_query_ms.p50"] = median(m.global) * 1e3
	pl["bench.point_query_us.p50"] = median(m.point) * 1e6
	pl["bench.point_query_us.p99"] = summarize(m.point).P99 * 1e6
	pl["bench.raw_global_query_ms.p99"] = summarize(m.global).P99 * 1e3
	pl["bench.fresh_answer_ms.p50"] = median(m.fresh) * 1e3
	pl["bench.fresh_answer_ms.p99"] = summarize(m.fresh).P99 * 1e3
	pl["bench.laps"] = float64(laps)
}

// generatorCeiling replays the segment into a no-op sink: the rate the
// harness itself could feed updates at, in millions per second.
func generatorCeiling(st *stream, sp *spec) float64 {
	probe := &stream{seg: st.seg}
	var sink int64
	t := time.Now()
	n := 0
	for n < 4*len(st.seg.updates) {
		b := probe.next(sp.batch)
		sink += b[0].Delta + b[len(b)-1].Delta
		n += len(b)
	}
	d := time.Since(t).Seconds()
	generatorSink = sink
	return float64(n) / d / 1e6
}

// generatorSink keeps the replay loop's reads from being optimised away.
var generatorSink int64

// kernelProvenance records the hash layer's dispatch configuration as
// numbers, so a run whose self-calibrated cutovers differ from another
// run's shows it in the ledger.
func kernelProvenance(pl map[string]float64) {
	if hash.KernelName() != "scalar" {
		pl["hash.kernel_vector"] = 1
	}
	cut := hash.KernelCutovers()
	for _, fam := range []string{"bucket_signs", "range", "gather", "median"} {
		pl["hash.cutover."+fam] = float64(cut[fam])
	}
}
