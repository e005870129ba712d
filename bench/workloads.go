package main

import (
	"fmt"

	bounded "repro"
	"repro/engine"
	"repro/internal/csss"
)

// sketchSeed is the Config.Seed of every structure under test: the
// sketches' hash functions are the same in every run, and the program
// under test sees the workload seed only through the updates it is fed.
const sketchSeed = 20180610

// regime names the CSSS sampling state a workload pins its heavy
// hitters structure in.
type regime int

const (
	regimeFree    regime = iota // not asserted
	regimeRate1                 // total unit mass stays below 2S: p = 0 everywhere
	regimeSampled               // every shard holds between 2S and 4S units: p = 1 everywhere
)

// spec freezes one workload: what runs, at which sizes. The lap sizes
// are fixed work, so both sides of an A/B do the same updates; laps per
// ten seconds is the count this host's seed commit completes in about
// ten seconds on one processor, and -seconds scales the lap count, not
// the lap.
type spec struct {
	name, why  string
	fleet      bool
	cfg        bounded.Config
	structures engine.Structures
	shards     int
	segLen     int
	zipf       float64
	batch      int // updates per Ingest call
	warmLaps   int // untimed laps before the window (regimeSampled: until every shard passes 2S)
	lapCalls   int // engine: Ingest calls per lap; fleet: rounds per lap
	lapsPer10s int
	blocks     int  // fresh systems per run, at least; set-up is timed once per block and laps pool over them
	reader     bool // every Ingest call is followed by one read
	regime     regime
}

const (
	allStructures = engine.HeavyHitters | engine.L1Estimator | engine.L0Estimator | engine.SupportSampler
	// fleet geometry: sites, and Ingest calls per site per round.
	fleetAgents     = 4
	fleetRoundCalls = 16
	// readKeys is the size of one point-query batch; probeCount the
	// number of fixed keys the quiesced check estimates.
	readKeys   = 256
	probeCount = 4096
	// idleReads is the number of EstimateBatch calls an engine lap
	// boundary issues while nothing is in flight.
	idleReads = 16
	// minLaps is the floor of the timed window whatever -seconds says.
	minLaps = 5
	// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
	runSeconds = 18
)

var specs = []*spec{
	{
		name: "ingest-rate1",
		why:  "CSSS never halves, so every batch takes the fused hash, row-major apply and batched candidate refresh path: hash, core and shard do the work",
		cfg:  bounded.Config{N: universeN, Eps: 0.02, Alpha: 64, Seed: sketchSeed}, structures: engine.HeavyHitters,
		shards: 1, segLen: 1 << 22, zipf: 1.2, batch: 4096, warmLaps: 4, lapCalls: 256, lapsPer10s: 100, blocks: 5, regime: regimeRate1,
	},
	{
		name: "ingest-sampled",
		why:  "same stream and tables with S 16 times smaller, warmed past 2S: the per-item sampled path does the work and the vector kernels almost none",
		cfg:  bounded.Config{N: universeN, Eps: 0.02, Alpha: 16, Seed: sketchSeed}, structures: engine.HeavyHitters,
		shards: 1, segLen: 1 << 22, zipf: 1.2, batch: 4096, lapCalls: 256, lapsPer10s: 48, blocks: 3, regime: regimeSampled,
	},
	{
		name: "mixed-readwrite",
		why:  "four structures, many distinct keys per batch and a reader beside the producer: routed reads queue behind ingest, global reads rebuild the merged view",
		cfg:  bounded.Config{N: universeN, Eps: 0.05, Alpha: 8, Seed: sketchSeed}, structures: allStructures,
		shards: 1, segLen: 1 << 20, zipf: 1.05, batch: 1024, warmLaps: 4, lapCalls: 64, lapsPer10s: 40, blocks: 4, reader: true,
	},
	{
		name:  "fleet-sync",
		why:   "four agents sync to one aggregator over loopback and a client queries it: snapshot, marshal, frame, decode, merge and view caching do the work",
		fleet: true,
		cfg:   bounded.Config{N: universeN, Eps: 0.02, Alpha: 8, Seed: sketchSeed}, structures: engine.HeavyHitters | engine.L1Estimator,
		shards: 1, segLen: 1 << 20, zipf: 1.2, batch: 1024, warmLaps: 1, lapCalls: 10, lapsPer10s: 42, blocks: 5,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sampleBudget is the CSSS per-row sample budget S of the workload's
// heavy hitters structure.
func (s *spec) sampleBudget() int64 {
	return csss.RecommendedS(s.cfg.Alpha, s.cfg.Eps, s.cfg.N)
}

// laps is the length of the timed window for a -seconds value.
func (s *spec) laps(seconds float64) int {
	return max(minLaps, int(seconds*float64(s.lapsPer10s)/10+0.5))
}

// blockPlan cuts the timed window into blocks: at least s.blocks, and
// in the sampled regime as many as keep a block — which opens at most
// one lap past 2S — short of 4S.
func (s *spec) blockPlan(seconds float64) (blocks, perBlock int) {
	laps := s.laps(seconds)
	blocks = s.blocks
	if s.regime == regimeSampled {
		room := int(2*s.sampleBudget()/int64(s.lapCalls*s.batch)) - 1
		blocks = max(blocks, (laps+room-1)/room)
	}
	return blocks, (laps + blocks - 1) / blocks
}

// scaled shrinks the segment and the lap by div; only tests pass div > 1.
func (s *spec) scaled(div int) *spec {
	if div <= 1 {
		return s
	}
	c := *s
	c.lapCalls = max(1, s.lapCalls/div)
	c.segLen = max(1, s.segLen/s.batch/div) * s.batch
	return &c
}

// metric is one row of the catalogue BENCHMARK.json is written from.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the gated metrics: what a caller of the library or a
// client of the aggregator sees. Every workload reports every one. The
// three timings are host-adjusted (yardstick.go); their raw values are
// the ledger's bench.raw_* rows.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"updates_per_s", "updates/s", "higher", 0.25},
	{"global_query_ms.p50", "ms", "lower", 0.25},
	{"state_wire_bytes", "B", "lower", 0.05},
	{"hh_recall", "share", "higher", 0.02},
	{"hh_precision", "share", "higher", 0.02},
	{"point_err_ratio.mean", "ratio", "lower", 0.15},
	{"space_bits", "bits", "lower", 0.05},
	{"state_heap_mb", "MB", "lower", 0.10},
}

// perLayer lists the ledger: single-layer costs and counts, not gated.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metric{
	{Name: "core.plan_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.arena_gets", Unit: "count", Better: "lower"},
	{Name: "core.arena_misses", Unit: "count", Better: "lower"},

	{Name: "hash.bucket_signs_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "hash.range_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "hash.gather_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "hash.median7_ns_per_col", Unit: "ns", Better: "lower"},
	{Name: "hash.vector_calls", Unit: "count", Better: "higher"},
	{Name: "hash.scalar_calls", Unit: "count", Better: "lower"},
	{Name: "hash.vector_call_share", Unit: "share", Better: "higher"},
	{Name: "hash.bucket_signs_calls", Unit: "count", Better: "lower"},
	{Name: "hash.range_calls", Unit: "count", Better: "lower"},
	{Name: "hash.gather_calls", Unit: "count", Better: "lower"},
	{Name: "hash.median_calls", Unit: "count", Better: "lower"},
	{Name: "hash.kernel_vector", Unit: "count", Better: "higher"},
	{Name: "hash.cutover.bucket_signs", Unit: "count", Better: "lower"},
	{Name: "hash.cutover.range", Unit: "count", Better: "lower"},
	{Name: "hash.cutover.gather", Unit: "count", Better: "lower"},
	{Name: "hash.cutover.median", Unit: "count", Better: "lower"},

	{Name: "structures.hh.update_ns", Unit: "ns", Better: "lower"},
	{Name: "structures.l1.update_ns", Unit: "ns", Better: "lower"},
	{Name: "structures.l0.update_ns", Unit: "ns", Better: "lower"},
	{Name: "structures.support.update_ns", Unit: "ns", Better: "lower"},
	{Name: "structures.hh.estimate_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "structures.hh.query_us", Unit: "us", Better: "lower"},
	{Name: "structures.hh.marshal_us", Unit: "us", Better: "lower"},
	{Name: "structures.hh.unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "structures.hh.merge_us", Unit: "us", Better: "lower"},
	{Name: "structures.hh.wire_bytes", Unit: "B", Better: "lower"},
	{Name: "structures.hh.space_bits", Unit: "bits", Better: "lower"},
	{Name: "structures.l1.space_bits", Unit: "bits", Better: "lower"},
	{Name: "structures.l0.space_bits", Unit: "bits", Better: "lower"},
	{Name: "structures.support.space_bits", Unit: "bits", Better: "lower"},
	{Name: "structures.l1.rel_err", Unit: "share", Better: "lower"},
	{Name: "structures.l0.rel_err", Unit: "share", Better: "lower"},
	{Name: "structures.hh.point_err_ratio.p99", Unit: "ratio", Better: "lower"},
	{Name: "structures.hh.point_err_ratio.max", Unit: "ratio", Better: "lower"},
	{Name: "csss.sample_exponent.start", Unit: "count", Better: "lower"},
	{Name: "csss.sample_exponent.end", Unit: "count", Better: "lower"},

	{Name: "shard.busy_share.mean", Unit: "share", Better: "lower"},
	{Name: "shard.busy_share.max", Unit: "share", Better: "lower"},
	{Name: "shard.send_stalls", Unit: "count", Better: "lower"},
	{Name: "shard.key_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.batches_applied", Unit: "count", Better: "lower"},

	{Name: "engine.ingest_call_us.p50", Unit: "us", Better: "lower"},
	{Name: "engine.ingest_call_us.p99", Unit: "us", Better: "lower"},
	{Name: "engine.producer_busy_share", Unit: "share", Better: "lower"},
	{Name: "engine.flush_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "engine.estimate_batch_us.p50", Unit: "us", Better: "lower"},
	{Name: "engine.estimate_batch_us.p99", Unit: "us", Better: "lower"},
	{Name: "engine.estimate_batch_us.idle_p50", Unit: "us", Better: "lower"},
	{Name: "engine.heavy_hitters_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "engine.heavy_hitters_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "engine.l1_us.p50", Unit: "us", Better: "lower"},
	{Name: "engine.l0_us.p50", Unit: "us", Better: "lower"},
	{Name: "engine.support_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "engine.snapshot_builds", Unit: "count", Better: "lower"},
	{Name: "engine.merged_queries", Unit: "count", Better: "lower"},
	{Name: "engine.batched_queries", Unit: "count", Better: "lower"},
	{Name: "engine.snapshot_partitioned_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.snapshot_partitioned_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.restore_partitioned_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.shards2.updates_per_s", Unit: "updates/s", Better: "higher"},
	{Name: "engine.shard_scaling", Unit: "ratio", Better: "higher"},

	{Name: "netproto.frames_out", Unit: "count", Better: "lower"},
	{Name: "netproto.bytes_out", Unit: "B", Better: "lower"},
	{Name: "netproto.bytes_in", Unit: "B", Better: "lower"},
	{Name: "wire.snapshot_bytes", Unit: "B", Better: "lower"},

	{Name: "netagg.sync_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "netagg.sync_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "netagg.sync_skip_ns", Unit: "ns", Better: "lower"},
	{Name: "netagg.first_query_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "netagg.cached_query_us.p50", Unit: "us", Better: "lower"},
	{Name: "netagg.view_builds", Unit: "count", Better: "lower"},
	{Name: "netagg.snapshots_applied", Unit: "count", Better: "lower"},
	{Name: "netagg.agent_ingest_updates_per_s", Unit: "updates/s", Better: "higher"},
	{Name: "netagg.sync_bytes_per_update", Unit: "B", Better: "lower"},

	{Name: "ckpt.save_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "ckpt.open_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},

	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.generator_mupd_s", Unit: "Mupdates/s", Better: "higher"},
	{Name: "bench.host_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "bench.raw_setup_s", Unit: "s", Better: "lower"},
	{Name: "bench.raw_updates_per_s", Unit: "updates/s", Better: "higher"},
	{Name: "bench.lap_updates_per_s.min", Unit: "updates/s", Better: "higher"},
	{Name: "bench.lap_updates_per_s.max", Unit: "updates/s", Better: "higher"},
	{Name: "bench.point_query_us.p50", Unit: "us", Better: "lower"},
	{Name: "bench.point_query_us.p99", Unit: "us", Better: "lower"},
	{Name: "bench.raw_global_query_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "bench.raw_global_query_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "bench.fresh_answer_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "bench.fresh_answer_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "bench.laps", Unit: "count", Better: "higher"},
}
