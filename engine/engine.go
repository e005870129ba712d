package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	bounded "repro"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Options configures an Engine. The zero value is usable: it means
// "one shard per CPU, 1024-update hand-off batches, heavy hitters
// only, strict turnstile".
type Options struct {
	// Shards is the number of single-writer shards (default
	// runtime.GOMAXPROCS(0)).
	Shards int
	// BatchSize is the per-shard hand-off granularity in updates
	// (default 1024): Ingest accumulates per-shard runs of this size
	// before handing them to the shard goroutine.
	BatchSize int
	// Queue is the per-shard inbox depth in batches (default 4). A full
	// inbox blocks Ingest — bounded memory via backpressure.
	Queue int
	// Structures selects the sketches each shard maintains (default
	// HeavyHitters).
	Structures Structures
	// General asks for the general turnstile model: the general
	// variants where a structure has one (heavy hitters' Cauchy L1
	// scale, the sampled-Cauchy L1 estimator), and New refuses a
	// structure proven only for strict turnstile streams (the L1 and
	// support samplers). The default is the strict turnstile model.
	General bool
	// SamplerCopies is passed to bounded.NewL1Sampler (0 = its default).
	SamplerCopies int
	// SupportK is passed to bounded.NewSupportSampler as WithK (0 = its
	// default).
	SupportK int
	// SyncCapacity is passed to bounded.NewSyncSketch as WithCapacity
	// (0 = its default).
	SyncCapacity int
	// L1Delta is the strict L1 estimator's failure probability (0 = its
	// default; out-of-range values are rejected by engine.New). The
	// general variant (General: true) has no delta knob and ignores it.
	L1Delta float64
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1024
	}
	if o.Queue <= 0 {
		o.Queue = 4
	}
	if o.Structures == 0 {
		o.Structures = HeavyHitters
	}
}

// ErrNotEnabled is wrapped by query methods whose structure was not
// selected in Options.Structures.
var ErrNotEnabled = fmt.Errorf("engine: structure not enabled in Options.Structures")

// Engine is the sharded ingest engine. All methods are safe for
// concurrent use by multiple goroutines; ingest from many producers is
// the intended deployment. Global queries over several shards serialize
// with each other on queryMu (the merged snapshot's query paths share
// scratch) but — when the generation-tagged view cache is warm — never
// touch the engine mutex, so a query burst does not stall producers'
// partitioning. Routed queries, and a one-shard engine's global ones,
// go to the owning shard(s) and serialize only with those shards'
// ingest.
type Engine struct {
	mu      sync.Mutex // engine state: pending buffers, workers, view rebuild
	queryMu sync.Mutex // serializes queries over the cached merged view
	cfg     bounded.Config
	opt     Options
	part    *hash.KWise
	workers []*shard.Worker
	sets    []structSet // elements owned by the worker goroutines; touch via Do
	pending []*core.Batch
	// Partition-plan scratch (guarded by mu): an incoming batch's key
	// column and the shard column one batch hash evaluation computes
	// from it (planLocked), consumed by the columnar scatter before the
	// lock is released.
	planKeys   []uint64
	planShards []uint64
	// inflight counts producers (and routed reads) that are handing
	// filled buffers to shard inboxes or running shard closures outside
	// the lock; flushLocked waits for them so a flush (and therefore a
	// merged view, and Close) covers every Ingest whose locked section
	// completed.
	inflight sync.WaitGroup
	// gen is bumped on every state-changing Ingest/RestorePartitioned; the
	// cached view is valid iff its gen equals it. Both are atomics so the
	// global-query fast path can check them before taking any engine lock.
	gen    atomic.Uint64
	view   atomic.Pointer[mergedView] // stored under mu, rows queried under queryMu
	closed atomic.Bool                // transitions under mu
	// copies holds each row's per-shard copies from its last build, which
	// its next build overwrites; copies[row][0], merged into, is the row.
	// Written under mu AND queryMu, which every read of a view row holds.
	copies [len(kinds)][]bounded.Sketch
	// snapshotBuilds counts the generations a merged view was started
	// for; its exactness backs the routed-query contract ("Estimate never
	// builds a snapshot").
	snapshotBuilds atomic.Int64
	// met is the engine-level observability cell block (stats.go).
	met engineMetrics
}

// partitionSeedSalt decorrelates the partition hash from the structure
// seeds derived from the same Config.Seed.
const partitionSeedSalt = 0x5DEECE66D

// New builds and starts an engine. Unlike the root package's
// constructors it returns Config validation problems as an error.
func New(cfg bounded.Config, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	e := &Engine{
		cfg:     cfg,
		opt:     opts,
		part:    hash.NewPairwise(rand.New(rand.NewSource(cfg.Seed ^ partitionSeedSalt))),
		workers: make([]*shard.Worker, opts.Shards),
		sets:    make([]structSet, opts.Shards),
		pending: make([]*core.Batch, opts.Shards),
	}
	e.met.csssExponent = make([]obs.Gauge, opts.Shards)
	e.met.l1Level = make([]obs.Gauge, opts.Shards)
	for i := range e.workers {
		set, err := newStructSet(cfg, opts)
		if err != nil {
			for j := 0; j < i; j++ {
				e.workers[j].Close()
			}
			return nil, err
		}
		e.sets[i] = set
		// Applied batches return to the shared columnar arena. The shard
		// name labels the worker goroutine in CPU profiles and names its
		// apply regions in execution traces.
		e.workers[i] = shard.NewNamed(applyShard{e, i}, opts.Queue, core.PutBatch, strconv.Itoa(i))
		e.pending[i] = core.GetBatch()
	}
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return e.opt.Shards }

// Structures returns the structure set every shard maintains, with
// defaults filled in — the set a networked agent enumerates when
// deciding which Snapshot kinds to ship.
func (e *Engine) Structures() Structures { return e.opt.Structures }

// Generation returns the engine's state generation: it advances on
// every state-changing Ingest and RestorePartitioned and is stable
// across queries, flushes, and snapshots. Two equal readings with no
// error in between mean the engine's sketch state is unchanged — the
// token the networked agent's incremental sync compares against its
// last ACKed snapshot to skip shipping sketches that cannot have moved.
//
// Read the generation BEFORE marshaling a snapshot: ingest racing the
// marshal can only make the snapshot carry MORE than the recorded
// generation claims, so acting on a stale reading re-sends state (a
// full-snapshot replacement is idempotent) rather than ever skipping
// unsent state.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// ShardOf reports which shard owns index i — the fast-range partition
// hash that routes i's updates and its point queries. Exposed so
// tooling (cmd/bdquery's routing report, load-balance diagnostics) can
// explain where a batched read fanned out; the mapping is fixed for
// the engine's lifetime.
func (e *Engine) ShardOf(i uint64) int {
	return int(e.part.Range(i, uint64(e.opt.Shards)))
}

// planLocked computes every key's owning shard in one straight-line
// batch hash sweep — the plan step Ingest and the batched routed reads
// share. The result is the mu-guarded shard-column scratch: valid until
// the caller releases e.mu. A one-shard engine hashes nothing and reads
// no key: its column stays as make zeroed it.
func (e *Engine) planLocked(keys []uint64) []uint64 {
	n := len(keys)
	shards := core.Grow(&e.planShards, n)
	if e.opt.Shards > 1 {
		e.part.RangeBatch(keys, uint64(e.opt.Shards), shards)
	}
	return shards
}

// pendingHandoff is one pending buffer detached under e.mu, awaiting
// its post-unlock Send.
type pendingHandoff struct {
	shard int
	buf   *core.Batch
}

// sendHandoffs pushes an Ingest's filled buffers to their shard inboxes.
// It runs AFTER e.mu is released, by an Ingest registered with
// e.inflight, so a full inbox blocks only that producer.
func (e *Engine) sendHandoffs(full []pendingHandoff) {
	for _, h := range full {
		e.workers[h.shard].Send(h.buf)
	}
	e.met.batchesSent.Add(int64(len(full)))
}

// handOffLocked sends shard s's pending run, if any, to its inbox.
// Callers hold e.mu and have waited for e.inflight, so the run lands
// behind every earlier hand-off to the shard and ahead of every later
// one: the shard applies a producer's updates in order, which the L0
// latch, the recovery peaks and the sampled regime's draws depend on.
func (e *Engine) handOffLocked(s int) {
	if e.pending[s].Len() > 0 {
		e.workers[s].Send(e.pending[s])
		e.met.batchesSent.Inc()
		e.pending[s] = core.GetBatch()
	}
}

// eachShard runs f(s) inside every shard's goroutine — serialized with
// that shard's ingest, the shards concurrent with each other — and
// returns when all have run, which makes an empty f a flush barrier.
func (e *Engine) eachShard(f func(s int)) {
	barriers := make([]<-chan struct{}, len(e.workers))
	for s, w := range e.workers {
		barriers[s] = w.DoAsync(func() { f(s) })
	}
	for _, b := range barriers {
		<-b
	}
}

// Ingest partitions a batch across the shards columnar-ly: one pass
// extracts the key column, one batch hash evaluation computes every
// update's shard, and a scatter pass appends indices and deltas into
// per-shard column batches. Runs of BatchSize updates hand off to the
// shard goroutines ready to apply — the shards never re-derive
// partition or bucket indices item-by-item. Ingest blocks when a
// shard's inbox is full (backpressure) and is safe to call from many
// producer goroutines concurrently. The input slice is copied; the
// caller may reuse it immediately.
func (e *Engine) Ingest(batch []bounded.Update) error {
	if len(batch) == 0 {
		return nil
	}
	start := obs.Now()
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: Ingest on closed engine")
	}
	n := len(batch)
	keys := core.Grow(&e.planKeys, n)
	if e.opt.Shards > 1 { // the only shard owns every key unread
		for j, u := range batch {
			keys[j] = u.Index
		}
	}
	shards := e.planLocked(keys)
	// Scatter under the lock; hand filled buffers off OUTSIDE it, so a
	// full shard inbox blocks only this producer — other producers keep
	// partitioning and queries keep answering (they wait, via inflight,
	// only when they hand a pending run off or need a fresh view).
	// Concurrent producers may then interleave their filled buffers in a
	// shard's inbox in either order, as their calls interleave; one
	// producer's buffers land in the order it ingested them.
	// Runs of same-shard updates, cut where a buffer fills, copy at once.
	var full []pendingHandoff
	for j := 0; j < n; {
		s := shards[j]
		p := e.pending[s]
		k, end := j+1, min(n, j+e.opt.BatchSize-p.Len())
		for k < end && shards[k] == s {
			k++
		}
		p.AppendUpdates(batch[j:k])
		if p.Len() >= e.opt.BatchSize {
			full = append(full, pendingHandoff{shard: int(s), buf: p})
			e.pending[s] = core.GetBatch()
		}
		j = k
	}
	e.gen.Add(1)
	e.inflight.Add(1)
	e.mu.Unlock()
	e.sendHandoffs(full)
	e.inflight.Done()
	e.met.ingestCalls.Inc()
	e.met.ingestedKeys.Add(int64(n))
	e.met.ingestNanos.ObserveSince(start)
	return nil
}

// flushLocked pushes every pending run to its shard and waits until all
// shards have drained their inboxes. Callers hold e.mu.
func (e *Engine) flushLocked() {
	e.inflight.Wait() // in-flight producer hand-offs must land first
	for s := range e.pending {
		e.handOffLocked(s)
	}
	e.eachShard(func(int) {})
}

// Flush blocks until every update passed to Ingest so far has been
// applied by its shard.
func (e *Engine) Flush() error {
	start := obs.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("engine: Flush on closed engine")
	}
	e.flushLocked()
	e.met.flushCalls.Inc()
	e.met.flushNanos.ObserveSince(start)
	return nil
}

// RaiseSampleExponent thins every shard's heavy-hitters CSSS down to
// rate 2^-p (bounded.HeavyHitters.RaiseSampleExponent) — what a
// networked agent does when its aggregator's union samples at 2^-p, so
// that the union's rebuilds add tables already at its rate instead of
// thinning each agent's again. Every pending run is handed off first,
// as a flush hands it off, so the thinning lands behind every update
// already ingested; the shards then sample at 2^-p on their own
// schedule. A shard already at p or coarser is left alone; when any
// shard moved the generation advances (the state changed) and the
// per-shard exponent gauges are republished. The cost is the
// documented one: local answers become as coarse as the union's. An
// engine without heavy hitters has nothing to raise, and a call no
// shard's published exponent is below returns without a lock.
func (e *Engine) RaiseSampleExponent(p int) error {
	row, _ := HeavyHitters.row()
	if e.opt.Structures&HeavyHitters == 0 || !e.belowExponent(p) {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("engine: RaiseSampleExponent on closed engine")
	}
	e.inflight.Wait()
	for s := range e.pending {
		e.handOffLocked(s)
	}
	var raised atomic.Bool
	errs := make([]error, len(e.workers))
	e.eachShard(func(s int) {
		hh := e.sets[s][row].(*bounded.HeavyHitters)
		if hh.SampleExponent() >= p {
			return
		}
		if errs[s] = hh.RaiseSampleExponent(p); errs[s] == nil {
			raised.Store(true)
			applyShard{e, s}.publish()
		}
	})
	if raised.Load() {
		e.gen.Add(1)
	}
	return errors.Join(errs...)
}

// belowExponent reports whether some shard's published heavy-hitters
// exponent is below p. A shard publishes after every batch and restore,
// and between restores its exponent only rises, so a gauge at p or
// above means the shard is there too.
func (e *Engine) belowExponent(p int) bool {
	for s := range e.met.csssExponent {
		if e.met.csssExponent[s].Load() < int64(p) {
			return true
		}
	}
	return false
}

// mergedView is the merged snapshot at one generation: one row per
// kind, nil until a global read asks for that kind. A published view is
// never written again — a row built later is published in a copy of the
// row set — so a reader may hold one without a lock.
type mergedView struct {
	gen  uint64
	rows structSet
}

// cachedRow returns row's merged sketch if one was built at the current
// generation.
func (e *Engine) cachedRow(row int) bounded.Sketch {
	if v := e.view.Load(); v != nil && v.gen == e.gen.Load() {
		return v.rows[row]
	}
	return nil
}

// withView runs f over kind's sketch of the whole stream — the one path
// behind every global query; op names the caller in errors. A one-shard
// engine has nothing to merge: f runs on the live structure inside the
// shard goroutine (routedRead, timed as a merged query), so the read
// copies nothing, starts no view and takes no draw from the shard's
// generators. With more shards f reads the merged view (viewRead).
func (e *Engine) withView(kind Structures, op string, f func(bounded.Sketch)) error {
	if e.opt.Shards == 1 {
		return e.routedRead(kind, op, &e.met.merged, e.everyShard(), nil, func(sk bounded.Sketch, _ shardColumn) { f(sk) })
	}
	return e.viewRead(kind, op, f)
}

// viewRead runs f over kind's sketch in the merged snapshot. Structure
// queries mutate per-structure scratch (that is where the hot path's
// zero allocations come from), so concurrent queries against the shared
// cached view serialize on queryMu. The generation-tagged cache is
// checked BEFORE the engine mutex: a query burst against a warm cache
// never touches e.mu, so it cannot stall producers partitioning under it
// — the query/ingest interleave cost is one atomic load plus queryMu.
func (e *Engine) viewRead(kind Structures, op string, f func(bounded.Sketch)) error {
	row, ok := kind.row()
	if !ok || e.opt.Structures&kind == 0 {
		return fmt.Errorf("%s: %w", op, ErrNotEnabled)
	}
	start := obs.Now()
	defer e.met.merged.observe(start)
	if e.cachedRow(row) != nil {
		e.queryMu.Lock()
		if e.closed.Load() {
			e.queryMu.Unlock()
			return fmt.Errorf("engine: query on closed engine")
		}
		// Re-verify under queryMu: the cache may have gone stale between
		// the check and the lock; if so, fall through to the slow path.
		if sk := e.cachedRow(row); sk != nil {
			f(sk)
			e.queryMu.Unlock()
			return nil
		}
		e.queryMu.Unlock()
	}
	// Slow path: build the row under the engine mutex and queryMu (it
	// overwrites the row's last generation), then release the engine
	// mutex before running the query, so producers resume immediately.
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: query on closed engine")
	}
	e.queryMu.Lock()
	sk, err := e.viewRowLocked(row)
	e.mu.Unlock()
	if err == nil {
		f(sk)
	}
	e.queryMu.Unlock()
	return err
}

// viewRowLocked returns row's sketch merged over all shards, building
// what is missing: a stale view is replaced by an empty one at the
// current generation after ONE flush, and the row is cloned inside each
// shard's goroutine (the shard keeps ingesting) into the storage of the
// row's last build, and the copies are merged into the first by one
// bounded.MergeAll — the other kinds are left alone until somebody
// asks. Rows are cached
// until the next Ingest, and a valid view means no Ingest completed
// since its flush, hence nothing pending or in flight: a second kind at
// the same generation flushes nothing. Callers hold e.mu and e.queryMu.
func (e *Engine) viewRowLocked(row int) (bounded.Sketch, error) {
	v := e.view.Load()
	stale := v == nil || v.gen != e.gen.Load()
	if !stale && v.rows[row] != nil {
		return v.rows[row], nil
	}
	// Building a row is the engine's most expensive maintenance step, so
	// it gets a trace task (flush + clone fan-out + merge show up
	// as one unit in `go tool trace`) and a latency histogram observation.
	start := obs.Now()
	task := obs.StartTask(context.Background(), "engine.snapshotBuild")
	defer task.End()
	if stale {
		e.flushLocked()
		// Every Ingest whose locked section completed has bumped gen by now
		// (it did so under e.mu) and been flushed; later Ingests are blocked
		// on e.mu, so this generation stamp covers exactly what the view's
		// rows will hold.
		v = &mergedView{gen: e.gen.Load(), rows: make(structSet, len(kinds))}
		e.snapshotBuilds.Add(1)
	}
	copies := e.copies[row]
	storage := &e.met.viewCopiesReused
	if copies == nil {
		copies, storage = make([]bounded.Sketch, len(e.workers)), &e.met.viewCopiesAllocated
		e.copies[row] = copies
	}
	storage.Add(int64(len(copies)))
	cloneSpan := obs.StartRegion(task.Context(), "engine.cloneShards")
	e.eachShard(func(s int) { copies[s] = e.sets[s][row].CloneInto(copies[s]) })
	cloneSpan.End()
	mergeSpan := obs.StartRegion(task.Context(), "engine.mergeShards")
	merged, err := bounded.MergeAll(copies[0], copies) // in place: the copies are the view's own
	mergeSpan.End()
	if err != nil {
		return nil, err
	}
	e.met.snapshotNanos.ObserveSince(start)
	next := &mergedView{gen: v.gen, rows: slices.Clone(v.rows)}
	next.rows[row] = merged
	e.view.Store(next)
	return merged, nil
}

// shardColumn is one involved shard's slice of a routed read: the keys
// the shard owns and their positions in the caller's input (both nil
// for reads that carry no key column).
type shardColumn struct {
	shard int
	keys  []uint64
	pos   []int
}

// everyShard routes a read to all shards, with no key column.
func (e *Engine) everyShard() []shardColumn {
	cols := make([]shardColumn, e.opt.Shards)
	for s := range cols {
		cols[s].shard = s
	}
	return cols
}

// scatterLocked routes a batched read — the read-side mirror of
// Ingest's columnar scatter: planLocked computes every key's owning
// shard, and keys plus input positions scatter by column; only shards
// that own a key are returned. The columns outlive the lock (the shard
// closures consume them), so they are per-call storage, not plan
// scratch. Callers hold e.mu.
func (e *Engine) scatterLocked(keys []uint64) []shardColumn {
	byShard := make([]shardColumn, e.opt.Shards)
	for j, s := range e.planLocked(keys) {
		c := &byShard[s]
		c.keys = append(c.keys, keys[j])
		c.pos = append(c.pos, j)
	}
	cols := byShard[:0]
	for s, c := range byShard {
		if len(c.keys) > 0 {
			c.shard = s
			cols = append(cols, c)
		}
	}
	return cols
}

// routedRead is the one sequence behind all five routed (snapshot-free)
// reads, and behind a one-shard engine's global reads. The same
// fast-range partition hash that routes an index's updates routes the
// read, and the owning shard's live structure holds that index's entire
// mass, so the read runs as a closure in the shard goroutine —
// serialized with that shard's ingest — and never pays the all-shard
// flush barrier or builds a merged view (SnapshotBuilds does not move). Routing to the owner is also slightly more accurate than
// querying a merged table: the owner's counters only carry collision
// noise from its own partition of the key space.
//
// cols names the involved shards; a batched read passes its keys
// instead and they scatter into per-shard columns under e.mu. The
// involved shards' pending runs are handed off first, as a flush hands
// them off (handOffLocked); run then executes once per involved shard,
// inside its goroutine, on its live sketch of the given kind.
func (e *Engine) routedRead(kind Structures, op string, path *pathMetrics, cols []shardColumn, keys []uint64, run func(bounded.Sketch, shardColumn)) error {
	row, ok := kind.row()
	if !ok || e.opt.Structures&kind == 0 {
		return fmt.Errorf("%s: %w", op, ErrNotEnabled)
	}
	start := obs.Now()
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: %s on closed engine", op)
	}
	if keys != nil {
		cols = e.scatterLocked(keys)
	}
	if slices.ContainsFunc(cols, func(c shardColumn) bool { return e.pending[c.shard].Len() > 0 }) {
		e.inflight.Wait()
		for _, c := range cols {
			e.handOffLocked(c.shard)
		}
	}
	// Registering with inflight keeps Flush/Close honest: they wait for
	// the shard closures below, so they can never observe (or tear down)
	// a shard mid-read.
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()
	// Each closure reads its sketch and writes its results inside the
	// shard goroutine; the barrier waits establish the happens-before
	// for those writes.
	var few [4]<-chan struct{} // keeps the scalar reads' barrier off the heap
	barriers := few[:0]
	for _, c := range cols {
		barriers = append(barriers, e.workers[c.shard].DoAsync(func() { run(e.sets[c.shard][row], c) }))
	}
	for _, b := range barriers {
		<-b
	}
	path.observe(start)
	return nil
}

// members answers a set query from kind's merged sketch.
func (e *Engine) members(kind Structures, op string) (out []uint64, err error) {
	err = e.withView(kind, op, func(sk bounded.Sketch) { out = sk.(bounded.SetQuerier).Members() })
	return out, err
}

// scalar answers a whole-stream scalar query from kind's merged sketch.
func (e *Engine) scalar(kind Structures, op string) (out float64, err error) {
	err = e.withView(kind, op, func(sk bounded.Sketch) { out = sk.(bounded.ScalarQuerier).Estimate() })
	return out, err
}

// HeavyHitters returns the eps-heavy coordinates of the full ingested
// stream, from the merged shard snapshots.
func (e *Engine) HeavyHitters() ([]uint64, error) { return e.members(HeavyHitters, "HeavyHitters") }

// L2HeavyHitters returns the merged Appendix A L2 heavy hitters.
func (e *Engine) L2HeavyHitters() ([]uint64, error) {
	return e.members(L2HeavyHitters, "L2HeavyHitters")
}

// L1 returns the merged (1 +- eps) estimate of ||f||_1.
func (e *Engine) L1() (float64, error) { return e.scalar(L1Estimator, "L1") }

// L0 returns the merged (1 +- eps) estimate of ||f||_0.
func (e *Engine) L0() (float64, error) { return e.scalar(L0Estimator, "L0") }

// Sample draws one L1 sample from the merged sampler; ok is false when
// every sampler instance FAILed (the sampler never fabricates). A sample
// draws, so it reads a copy at every shard count, and making the copy
// takes one word from the live sampler's generator (until the rng
// travels on the wire, ROADMAP 4a).
func (e *Engine) Sample() (res bounded.Sample, ok bool, err error) {
	err = e.viewRead(L1Sampler, "Sample", func(sk bounded.Sketch) {
		res, ok = sk.(bounded.SampleQuerier).Sample()
	})
	return res, ok, err
}

// SyncSketch returns a private copy of the merged sync sketch — the
// full-stream sketch a peer exchange serializes, subtracts, and
// decodes. Mutating the copy does not affect the engine.
func (e *Engine) SyncSketch() (out *bounded.SyncSketch, err error) {
	err = e.withView(SyncSketch, "SyncSketch", func(sk bounded.Sketch) {
		out = sk.Clone().(*bounded.SyncSketch)
	})
	return out, err
}

// Estimate returns the heavy-hitters structure's point estimate of f_i,
// answered snapshot-free by the index's OWNING shard (see routedRead).
func (e *Engine) Estimate(i uint64) (out float64, err error) {
	owner := []shardColumn{{shard: e.ShardOf(i)}}
	err = e.routedRead(HeavyHitters, "Estimate", &e.met.point, owner, nil, func(sk bounded.Sketch, _ shardColumn) {
		out = sk.(bounded.PointQuerier).Estimate(i)
	})
	return out, err
}

// EstimateBatch returns the heavy-hitters point estimate of every
// index in idxs, in input order — the batched form of Estimate and the
// read-side mirror of Ingest's columnar plan: ONE batch hash evaluation
// computes every index's owning shard, the index set scatters by
// column into per-shard key lists, each involved shard answers its
// whole column with the structure's batched reader (one hash pass over
// the column, row-major table sweeps), and the answers reassemble into
// input positions. Unlike N scalar calls it crosses into each involved
// shard once per batch instead of once per index. Answers are
// bit-identical to calling Estimate once per index (duplicates simply
// repeat their estimate).
func (e *Engine) EstimateBatch(idxs []uint64) ([]float64, error) {
	return routedBatch(e, HeavyHitters, "EstimateBatch", idxs, func(sk bounded.Sketch, keys []uint64) []float64 {
		return sk.(bounded.BatchPointQuerier).EstimateBatch(keys)
	})
}

// routedBatch is the batched routed read behind EstimateBatch and
// ProbeBatch: idxs scatter to their owning shards, answer runs on each
// involved shard's key column, and the answers reassemble into input
// positions (the shards write disjoint positions of out).
func routedBatch[T any](e *Engine, kind Structures, op string, idxs []uint64, answer func(bounded.Sketch, []uint64) []T) ([]T, error) {
	out := make([]T, len(idxs))
	if len(idxs) == 0 {
		return out, nil
	}
	err := e.routedRead(kind, op, &e.met.batched, nil, idxs, func(sk bounded.Sketch, c shardColumn) {
		for t, v := range answer(sk, c.keys) {
			out[c.pos[t]] = v
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Probe reports whether index i is in the ingested stream's support,
// answered snapshot-free by the index's OWNING shard, whose live
// support sampler holds i's entire substream (see routedRead).
func (e *Engine) Probe(i uint64) (out bool, err error) {
	owner := []shardColumn{{shard: e.ShardOf(i)}}
	err = e.routedRead(SupportSampler, "Probe", &e.met.point, owner, nil, func(sk bounded.Sketch, _ shardColumn) {
		out = sk.(bounded.Prober).Contains(i)
	})
	return out, err
}

// ProbeBatch reports, for every index in idxs in input order, whether
// it belongs to the stream's support — the batched form of Probe and
// the membership twin of EstimateBatch: each involved shard answers
// its whole key column with the sampler's batched prober (one hash
// pass over the column, at most one decode per live recovery level
// instead of one per index). Verdicts are identical to calling Probe
// once per index.
func (e *Engine) ProbeBatch(idxs []uint64) ([]bool, error) {
	return routedBatch(e, SupportSampler, "ProbeBatch", idxs, func(sk bounded.Sketch, keys []uint64) []bool {
		return sk.(bounded.BatchProber).ProbeBatch(keys)
	})
}

// Support returns distinct support coordinates of the full ingested
// stream, sorted — answered snapshot-free by routing: the partition
// hash sends every update for an index to exactly one shard, so the
// union of the shards' LIVE support recoveries covers the full stream
// without cloning or merging a single sampler. Every shard decodes its
// own levels inside its own goroutine, and the union reassembles
// outside.
func (e *Engine) Support() ([]uint64, error) {
	results := make([][]uint64, e.opt.Shards)
	err := e.routedRead(SupportSampler, "Support", &e.met.batched, e.everyShard(), nil, func(sk bounded.Sketch, c shardColumn) {
		results[c.shard] = sk.(bounded.SetQuerier).Members()
	})
	if err != nil {
		return nil, err
	}
	// Partition completeness makes the per-shard recoveries disjoint;
	// compacting the sorted union is belt and braces against a
	// (fingerprint-verified, hence overwhelmingly unlikely) forged decode.
	var out []uint64
	for _, r := range results {
		out = append(out, r...)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// Snapshot serializes the merged full-stream state of ONE structure
// (pass exactly one Structures bit) in the library's self-describing
// wire format. The receiving side is bounded.UnmarshalSketch followed
// by Merge into a same-Config sketch — linearity makes that the union
// of both streams, which is how the networked aggregator combines
// sites. The merged view is built the same way queries build it, so a
// snapshot reflects every update Ingest accepted before the call.
func (e *Engine) Snapshot(kind Structures) (out []byte, err error) {
	if kind == 0 || kind&(kind-1) != 0 {
		return nil, fmt.Errorf("engine: Snapshot takes exactly one Structures bit, got %s", kind)
	}
	var mErr error
	err = e.withView(kind, "Snapshot", func(sk bounded.Sketch) { out, mErr = sk.MarshalBinary() })
	if err == nil {
		err = mErr
	}
	return out, err
}

// SpaceBits reports the summed space of every shard's structures (the
// engine costs S times one structure set, the price of S-way write
// parallelism).
func (e *Engine) SpaceBits() (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return 0, fmt.Errorf("engine: SpaceBits on closed engine")
	}
	e.flushLocked()
	var sum atomic.Int64
	e.eachShard(func(s int) { sum.Add(e.sets[s].spaceBits()) })
	return sum.Load(), nil
}

// Close flushes pending updates and stops every shard goroutine. The
// engine cannot be used afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil
	}
	// Publish closure before tearing down workers: queries that start
	// after this point fail fast instead of racing the shutdown. Routed
	// reads and producer hand-offs already in flight are covered by
	// flushLocked's inflight wait.
	e.closed.Store(true)
	start := obs.Now()
	e.flushLocked()
	for _, w := range e.workers {
		w.Close()
	}
	e.met.closeNanos.ObserveSince(start)
	return nil
}
