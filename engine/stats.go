// stats.go is the engine's observability surface: the engineMetrics
// cell block the hot paths record into (internal/obs primitives), the
// exported Stats snapshot, and ExposeMetrics, which mounts everything
// on an obs.Registry for the Prometheus-text/JSON HTTP handler.
package engine

import (
	"net/http"
	"strconv"

	bounded "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// engineMetrics holds the engine-level counters and latency
// histograms. Per-shard counters live in the shard workers themselves
// (shard.Metrics, cache-line padded per worker); this struct covers
// the cross-shard paths. All fields are written lock-free on the hot
// paths and read by Stats()/the registry at any time.
type engineMetrics struct {
	// Ingest side.
	ingestCalls  obs.Counter   // Ingest invocations that accepted updates
	ingestedKeys obs.Counter   // updates accepted by Ingest
	batchesSent  obs.Counter   // columnar batches handed to shard inboxes
	ingestNanos  obs.Histogram // wall time per Ingest call (incl. backpressure)

	// Query side, by path.
	point   pathMetrics // routed scalar queries (Estimate, Probe)
	batched pathMetrics // routed batched queries (EstimateBatch, ProbeBatch, Support)
	merged  pathMetrics // queries answered from the merged view

	// Maintenance.
	snapshotNanos obs.Histogram // wall time per merged-view row built
	flushCalls    obs.Counter   // public Flush invocations
	flushNanos    obs.Histogram // wall time per public Flush
	closeNanos    obs.Histogram // wall time of Close (one observation)
	// Per-shard copies merged-view rows were built from: into the storage
	// of the row's last build, or (its first build) into fresh storage.
	viewCopiesReused, viewCopiesAllocated obs.Counter

	// Durability (durability.go).
	partSnapshots    obs.Counter   // SnapshotPartitioned calls completed
	partSnapNanos    obs.Histogram // wall time per partitioned snapshot
	partRestores     obs.Counter   // RestorePartitioned installs
	partRestoreNanos obs.Histogram // wall time per partitioned restore

	// Algorithm state per shard, stored by its goroutine (applyShard.publish).
	csssExponent []obs.Gauge // sampling exponent p of the heavy hitters structure
	l1Level      []obs.Gauge // oldest live level j* of the L1 estimator
}

// applyShard is shard s's shard.Ingester: apply the batch, then publish
// the shard's algorithm-state gauges.
type applyShard struct {
	e *Engine
	s int
}

func (a applyShard) UpdateColumns(b *core.Batch) {
	a.e.sets[a.s].UpdateColumns(b)
	a.publish()
}

// publish runs in the shard's goroutine, after each applied batch and
// after a restore: one atomic store per regime gauge.
func (a applyShard) publish() {
	set := a.e.sets[a.s]
	hhRow, _ := HeavyHitters.row()
	if hh, ok := set[hhRow].(*bounded.HeavyHitters); ok {
		a.e.met.csssExponent[a.s].Set(int64(hh.SampleExponent()))
	}
	l1Row, _ := L1Estimator.row()
	if l1, ok := set[l1Row].(*bounded.L1Estimator); ok {
		a.e.met.l1Level[a.s].Set(int64(l1.SampleLevel()))
	}
}

// pathMetrics is one query path's call counter and wall-time histogram.
type pathMetrics struct {
	queries obs.Counter
	nanos   obs.Histogram
}

// observe records one query that started at start (obs.Now).
func (p *pathMetrics) observe(start int64) {
	p.queries.Inc()
	p.nanos.ObserveSince(start)
}

// ShardStats is one shard's slice of an engine Stats snapshot.
type ShardStats struct {
	// BatchesApplied and KeysApplied count work the shard goroutine has
	// finished; after Flush they are exact (sum of BatchesApplied over
	// shards equals BatchesSent).
	BatchesApplied int64
	KeysApplied    int64
	// BusyNanos is time the shard goroutine spent applying batches;
	// divide by wall time for occupancy.
	BusyNanos int64
	// SendStalls counts hand-offs that found this shard's inbox full —
	// the backpressure signal.
	SendStalls int64
	// QueueDepth is the inbox occupancy at snapshot time; QueueCap its
	// bound.
	QueueDepth int
	QueueCap   int
	// SampleExponent is the CSSS exponent p (rate 2^-p, 0 = exact) of the
	// shard's heavy hitters structure as of its last batch or restore.
	SampleExponent int
	// L1Level is the oldest live level j* of the shard's L1 estimator,
	// whose counters answer (rate s^-j*, 0 = every unit counted), as of
	// its last batch or restore.
	L1Level int
}

// Stats is a point-in-time snapshot of the engine's metrics. Counters
// are exact (every event counted, none sampled); they are read
// individually, so a snapshot taken while producers run is per-counter
// atomic rather than a consistent cut — quiesce with Flush first when
// exact cross-counter identities matter.
type Stats struct {
	// Shards is the engine's shard count (always populated).
	Shards int

	// IngestCalls counts Ingest invocations that accepted at least one
	// update; IngestedKeys the updates they carried; BatchesSent the
	// columnar batches handed to shard inboxes (full runs plus flush and
	// early-hand-off remainders).
	IngestCalls  int64
	IngestedKeys int64
	BatchesSent  int64
	// IngestLatency is wall time per Ingest call, including any
	// backpressure blocking on a full shard inbox.
	IngestLatency obs.HistogramSnapshot

	// PointQueries counts routed scalar queries (Estimate, Probe);
	// BatchedQueries routed batched queries (EstimateBatch, ProbeBatch,
	// Support); MergedQueries queries answered from the merged view
	// (the global queries and Snapshot).
	PointQueries   int64
	PointLatency   obs.HistogramSnapshot
	BatchedQueries int64
	BatchedLatency obs.HistogramSnapshot
	MergedQueries  int64
	MergedLatency  obs.HistogramSnapshot

	// SnapshotBuilds counts the generations a merged view was started for
	// — one flush each, however many kinds were then read (it backs the
	// routed-query contract tests);
	// SnapshotLatency the wall time of each kind's row built in them (S
	// clone closures, S-1 merges, and for a generation's first row the
	// flush).
	SnapshotBuilds  int64
	SnapshotLatency obs.HistogramSnapshot

	// Flushes counts public Flush calls and FlushLatency their wall
	// time; CloseLatency holds Close's single observation once closed.
	Flushes      int64
	FlushLatency obs.HistogramSnapshot
	CloseLatency obs.HistogramSnapshot

	// PartitionedSnapshots counts SnapshotPartitioned calls;
	// PartitionedRestores successful RestorePartitioned installs
	// (shard-for-shard, routed reads preserved).
	PartitionedSnapshots       int64
	PartitionedSnapshotLatency obs.HistogramSnapshot
	PartitionedRestores        int64
	PartitionedRestoreLatency  obs.HistogramSnapshot

	// BackpressureStalls sums SendStalls over shards.
	BackpressureStalls int64

	// PerShard has one entry per shard, indexed by shard number.
	PerShard []ShardStats
}

// Stats returns a snapshot of the engine's observability counters. It
// takes no engine locks and may be called concurrently with ingest and
// queries (see the Stats type for the consistency contract). It works
// on a closed engine.
func (e *Engine) Stats() Stats {
	s := Stats{
		Shards:          e.opt.Shards,
		IngestCalls:     e.met.ingestCalls.Load(),
		IngestedKeys:    e.met.ingestedKeys.Load(),
		BatchesSent:     e.met.batchesSent.Load(),
		IngestLatency:   e.met.ingestNanos.Snapshot(),
		PointQueries:    e.met.point.queries.Load(),
		PointLatency:    e.met.point.nanos.Snapshot(),
		BatchedQueries:  e.met.batched.queries.Load(),
		BatchedLatency:  e.met.batched.nanos.Snapshot(),
		MergedQueries:   e.met.merged.queries.Load(),
		MergedLatency:   e.met.merged.nanos.Snapshot(),
		SnapshotBuilds:  e.snapshotBuilds.Load(),
		SnapshotLatency: e.met.snapshotNanos.Snapshot(),
		Flushes:         e.met.flushCalls.Load(),
		FlushLatency:    e.met.flushNanos.Snapshot(),
		CloseLatency:    e.met.closeNanos.Snapshot(),

		PartitionedSnapshots:       e.met.partSnapshots.Load(),
		PartitionedSnapshotLatency: e.met.partSnapNanos.Snapshot(),
		PartitionedRestores:        e.met.partRestores.Load(),
		PartitionedRestoreLatency:  e.met.partRestoreNanos.Snapshot(),

		PerShard: make([]ShardStats, len(e.workers)),
	}
	for i, w := range e.workers {
		m := w.Metrics()
		ss := ShardStats{
			BatchesApplied: m.BatchesApplied.Load(),
			KeysApplied:    m.KeysApplied.Load(),
			BusyNanos:      m.BusyNanos.Load(),
			SendStalls:     m.SendStalls.Load(),
			QueueDepth:     w.QueueDepth(),
			QueueCap:       w.QueueCap(),
			SampleExponent: int(e.met.csssExponent[i].Load()),
			L1Level:        int(e.met.l1Level[i].Load()),
		}
		s.PerShard[i] = ss
		s.BackpressureStalls += ss.SendStalls
	}
	return s
}

// ExposeMetrics registers the engine's metrics on r under the given
// instance label and returns the function that unregisters them (call
// it when the engine is closed or the registry outlives it). Use
// obs.Default as r to surface the engine on the process-wide
// obs.Handler next to the arena and kernel-dispatch metrics.
func (e *Engine) ExposeMetrics(r *obs.Registry, instance string) func() {
	owner := "engine:" + instance
	inst := obs.Label{Key: "instance", Value: instance}
	c := func(name, help string, f func() int64, labels ...obs.Label) {
		r.CounterFunc(owner, name, help, f, labels...)
	}
	h := func(name, help string, f func() obs.HistogramSnapshot, labels ...obs.Label) {
		r.HistogramFunc(owner, name, help, f, labels...)
	}
	m := &e.met
	c("repro_engine_ingest_calls_total", "Ingest invocations accepted", m.ingestCalls.Load, inst)
	c("repro_engine_ingested_keys_total", "updates accepted by Ingest", m.ingestedKeys.Load, inst)
	c("repro_engine_batches_sent_total", "columnar batches handed to shard inboxes", m.batchesSent.Load, inst)
	h("repro_engine_ingest_seconds", "wall time per Ingest call", m.ingestNanos.Snapshot, inst)
	for _, p := range []struct {
		name string
		m    *pathMetrics
	}{{"point", &m.point}, {"batched", &m.batched}, {"merged", &m.merged}} {
		path := obs.Label{Key: "path", Value: p.name}
		c("repro_engine_queries_total", "queries by path", p.m.queries.Load, inst, path)
		h("repro_engine_query_seconds", "query wall time by path", p.m.nanos.Snapshot, inst, path)
	}
	c("repro_engine_snapshot_builds_total", "generations a merged view was started for", e.snapshotBuilds.Load, inst)
	h("repro_engine_snapshot_build_seconds", "merged-view row build wall time", m.snapshotNanos.Snapshot, inst)
	const copies = "per-shard copies merged-view rows were built from, by storage"
	c("repro_engine_view_copies_total", copies, m.viewCopiesReused.Load, inst, obs.Label{Key: "storage", Value: "reused"})
	c("repro_engine_view_copies_total", copies, m.viewCopiesAllocated.Load, inst, obs.Label{Key: "storage", Value: "allocated"})
	c("repro_engine_flushes_total", "public Flush calls", m.flushCalls.Load, inst)
	h("repro_engine_flush_seconds", "public Flush wall time", m.flushNanos.Snapshot, inst)
	c("repro_engine_part_snapshots_total", "partitioned snapshots built", m.partSnapshots.Load, inst)
	h("repro_engine_part_snapshot_seconds", "partitioned snapshot wall time", m.partSnapNanos.Snapshot, inst)
	c("repro_engine_part_restores_total", "partitioned restores installed", m.partRestores.Load, inst)
	h("repro_engine_part_restore_seconds", "partitioned restore wall time", m.partRestoreNanos.Snapshot, inst)
	for i, w := range e.workers {
		w := w
		wm := w.Metrics()
		sh := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		c("repro_engine_shard_batches_applied_total", "batches applied per shard", wm.BatchesApplied.Load, inst, sh)
		c("repro_engine_shard_keys_applied_total", "keys applied per shard", wm.KeysApplied.Load, inst, sh)
		c("repro_engine_shard_busy_nanos_total", "shard goroutine time inside apply", wm.BusyNanos.Load, inst, sh)
		c("repro_engine_shard_send_stalls_total", "hand-offs that found the inbox full", wm.SendStalls.Load, inst, sh)
		r.GaugeFunc(owner, "repro_engine_shard_queue_depth", "inbox occupancy per shard",
			func() int64 { return int64(w.QueueDepth()) }, inst, sh)
		r.GaugeFunc(owner, "repro_engine_shard_queue_cap", "inbox bound per shard",
			func() int64 { return int64(w.QueueCap()) }, inst, sh)
		r.GaugeFunc(owner, "repro_engine_shard_csss_exponent", "CSSS sampling exponent p (rate 2^-p) of the shard's heavy hitters",
			m.csssExponent[i].Load, inst, sh)
		r.GaugeFunc(owner, "repro_engine_shard_l1_level", "oldest live level j* (rate s^-j*) of the shard's L1 estimator",
			m.l1Level[i].Load, inst, sh)
	}
	return func() { r.RemoveOwner(owner) }
}

// ExposeDefaultMetrics registers the engine's metrics on the
// process-wide default registry under the given instance label and
// returns the unregister function. It is ExposeMetrics for consumers
// outside this module, which cannot import internal/obs to name a
// registry; pair it with MetricsHandler to serve the result.
func (e *Engine) ExposeDefaultMetrics(instance string) func() {
	return e.ExposeMetrics(obs.Default, instance)
}

// MetricsHandler returns the process-wide metrics handler: every
// metric registered on the default registry — engines exposed with
// ExposeDefaultMetrics, plus the batch-arena and kernel-dispatch
// series — rendered as Prometheus text, or JSON with ?format=json.
// Mount it with http.Handle("/metrics", engine.MetricsHandler()).
func MetricsHandler() http.Handler { return obs.Handler() }
