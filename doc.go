// Package bounded is a from-scratch Go implementation of the algorithms
// in "Data Streams with Bounded Deletions" (Rajesh Jayaram and David P.
// Woodruff, PODS 2018, arXiv:1803.08777).
//
// # The model
//
// A data stream over a universe [n] is a sequence of updates
// (i, delta) applied to a frequency vector f. Splitting f = I - D into
// the insertion vector I and deletion-magnitude vector D, a stream has
// the L_p alpha-property when
//
//	||I + D||_p <= alpha * ||f||_p
//
// at query time (Definition 1). alpha = 1 is the insertion-only model;
// alpha = poly(n) is the unrestricted turnstile model. Real deletion
// workloads — network traffic differences, file synchronization,
// sensor occupancy — sit at small alpha, and there the paper replaces a
// log(n) factor in the space complexity of most fundamental streaming
// problems with log(alpha):
//
//	problem            turnstile lower bound      alpha-property here
//	eps-heavy hitters  eps^-1 log^2 n             eps^-1 log n log alpha
//	inner product      eps^-1 log n               eps^-1 log alpha
//	L1 estimation      log n                      log alpha
//	L0 estimation      eps^-2 log n               eps^-2 log alpha + log n
//	L1 sampling        log^2 n                    log n log alpha
//	support sampling   k log^2 n                  k log n log alpha
//
// # What this package provides
//
// One constructor per Figure 1 row, each wrapping the paper's algorithm
// for that problem (and each internal package also ships the
// unbounded-deletion baseline the paper compares against):
//
//   - NewHeavyHitters — Section 3 (CSSS, Figure 2)
//   - NewL1Estimator — Figure 4 (strict) / Theorem 8 (general)
//   - NewL0Estimator — Figure 7 (windowed KNW matrix). Its exact
//     small-L0 counters (Lemmas 19/21) answer LARGE for good once past
//     their bound, and from then on keep, update and encode no counters.
//     One rough estimate R_t drives both its row window and its Lemma 20
//     level estimator's, so the two cut at the same events.
//   - NewL1Sampler — Figure 3 (precision sampling over CSSS)
//   - NewSupportSampler — Figure 8 (windowed sparse recovery)
//   - NewInnerProduct — Theorem 2 (sampled, universe-reduced sketches)
//   - NewL2HeavyHitters — Appendix A
//   - NewTracker — exact alpha-property measurement (Definitions 1, 2)
//
// Constructors share one shape: NewX(cfg Config, opts ...Option)
// (*X, error). The Config carries the universal parameters (universe
// size, accuracy, assumed alpha, seed); functional options carry the
// structure-specific knobs — WithStrict selects the turnstile model
// (strict is the default), WithFailureProb tunes the strict L1
// estimator, WithCopies the sampler's parallel instances, WithK the
// support budget, WithCapacity the sync sketch's sparsity. Invalid
// configurations and out-of-range or non-applicable options return
// descriptive errors; nothing is silently clamped (the historical API
// replaced a bad L1 failure probability with 0.1 — that bug class is
// gone).
//
// Every structure implements the Sketch interface —
//
//	Update(i uint64, delta int64)
//	UpdateBatch(batch []Update)
//	UpdateColumns(b *Batch)
//	Merge(other Sketch) error
//	CloneInto(dst Sketch) Sketch  // Clone() is CloneInto(nil)
//	SpaceBits() int64
//	MarshalBinary() ([]byte, error)
//	UnmarshalBinary([]byte) error
//
// — so generic code (the engine, a network shipper, a checkpointer)
// handles all eight uniformly. SpaceBits is an information-theoretic
// space account in the paper's cost model, which the benchmark harness
// uses to regenerate Figure 1 empirically.
//
// # Determinism
//
// The same Config, the same update sequence and the same call sequence
// give the same bytes, in every regime of every structure — still
// exact, one sampled level live, or two that draw on every update.
// Every draw is made in an order the code fixes: rows in row order,
// the live levels of an interval schedule in ascending level order
// (internal/sample.Window, the one schedule under the strict and
// general L1 estimators and both sides of the inner product), never in
// map order. TestSameSeedSameBytes holds all eight structures to this;
// every bit-identity differential and golden digest rests on it. For
// the strict L1 estimator batch boundaries are part of the call
// sequence: a batch is one walk of its Morris clock, so UpdateColumns
// equals per-item feeding in law (internal/l1 TestWalkMatchesPerUnitLaw)
// and the same batches give the same bytes, but a batch cut elsewhere
// draws differently.
//
// Clone and restore derive a fresh rng stream, deterministically: Clone
// (CloneInto, into any storage) seeds the copy from one draw of the
// original's generator (so a Clone is part of the call sequence — it
// advances the original; Merge takes the same one draw from its ARGUMENT
// when, and only when, it must thin a copy of the argument's CSSS table
// — until the generator travels on the wire, ROADMAP 4a), and
// UnmarshalBinary seeds from a hash of the state (Go's generator state
// is not portable). The seed word is
// kept and the generator built at the copy's first draw: the same draws,
// paid only by a copy that samples. Equal bytes restore equal structures, and
// counters, positions and schedules round-trip exactly; but the copy's
// FUTURE sampling decisions are not the original's, so "restored in
// mid-stream" equals "never marshalled" as bytes only while nothing is
// drawn (the exact regimes).
//
// What one update costs in |delta|: nothing extra for the linear
// structures (L0Estimator, SupportSampler, SyncSketch and the dense
// baselines fold delta in field or integer arithmetic). The sampling
// structures treat delta as |delta| unit updates without looping over
// them: CSSS (both HeavyHitters, the L1Sampler's tail estimator) thins
// with one binomial per row and cuts only at its O(log |delta|)
// halving boundaries; the strict L1 estimator walks its Morris clock
// from tick to tick (one geometric gap each, O(log |delta|) ticks), and
// between ticks each sampled live level keeps one binomial of the
// positive and one of the negative units; the general L1 estimator and
// InnerProduct step through the interval schedule in runs over which
// the live set stands still — level 0 adds the run in closed form, a
// sampled level keeps Binomial(run, s^-j) units — O(1) draws per live
// level per window move, O(log_s |delta|) moves. A run of exactly one
// unit draws the single coin it always drew, so unit-delta streams are
// byte-identical to a per-unit loop; the strict L1 estimator's Update
// keeps that too (a clock draw, then one coin per sampled level).
//
// # Serialization: sketches cross process boundaries
//
// The paper's headline scenarios — distributed monitoring, file
// synchronization — have each site build a small linear sketch and
// ship it for merging elsewhere. MarshalBinary implements exactly
// that: a versioned, self-describing envelope (magic, format version,
// kind byte, Config echo, options echo) around the structure's state —
// what Update and Merge change (counters, clocks, candidates, live
// levels) and nothing else. Every dimension, prime and hash coefficient
// is a function of the Config and options, so the receiver rebuilds the
// identical linear map: UnmarshalBinary holds the state's length to the
// echoed shape's least length before anything is allocated, builds the
// structure through its constructor exactly as New does — an echo the
// constructor refuses, or would not have written, is refused — and
// fills the state in. It works on a zero-value receiver; UnmarshalSketch
// dispatches on the kind byte when the receiver does not know what it
// was sent; SketchKind peeks without restoring. The format has one
// version (4); a blob of another is refused. Every count column travels
// at the byte width most of its entries need, the few wider entries
// patched in behind it, so a blob's counters take no more than the bits
// the space bound charges them (a heavy-hitters blob is about 0.6 ×
// SpaceBits()/8), with field elements and floats a word each.
//
//	wire, _ := siteSketch.MarshalBinary()      // site: serialize
//	sk, err := bounded.UnmarshalSketch(wire)   // coordinator: restore
//	err = coordinator.Merge(sk)                // ... and merge
//
// In the sketches' exact regimes, marshal → ship → unmarshal → Merge
// is bit-identical to an in-process Clone + Merge (asserted by
// differential tests on the Fig1 workload for every structure), and
// the restored structure keeps ingesting: counters, sampling clocks,
// candidate trackers and norm scales all round-trip. UnmarshalBinary
// copies what it keeps, so the caller may overwrite or reuse the bytes
// the moment it returns. Corrupt, truncated, or wrong-version payloads
// return errors, never panic — enforced by the FuzzUnmarshal target CI
// runs. The engine exposes the sending half at aggregate level —
// Engine.Snapshot(kind) marshals one structure's merged state — and
// the receiving half stays exactly the three lines above;
// examples/distributedmerge runs the whole exchange across real OS
// processes.
//
// A site's whole state is a list of these envelopes, one per structure,
// each tagged with its engine.Structures bit. The partitioned engine
// snapshot, the aggregator checkpoint and the SNAPSHOT frame all ship
// that one list layout (wire.Blob: one writer, one count-bounded
// reader), and one function admits it on receipt, engine.DecodeBlobs:
// a single known bit inside the receiver's accept set, not repeated,
// the payload's kind the one the engine's table gives that bit, the
// payload's Config echo equal to the receiver's Config, then
// UnmarshalSketch — every blob decoded before any is committed. A blob
// it admits merges with any structure built from that Config and the
// same options: there is no hash wiring left on the wire to disagree.
// (It does not compare the options echo: an engine restore does, against
// its own structures, and an aggregator against what its other agents
// hold of the kind.)
//
// # Performance
//
// The update pipeline is allocation-free in steady state and built for
// throughput:
//
//   - Each Count-Sketch/CSSS row derives its bucket AND sign from ONE
//     4-wise polynomial evaluation (disjoint bit-fields of the 61-bit
//     output), with specialized straight-line Horner chains over
//     2^61 - 1 using lazy reductions, and Lemire multiply-shift fast
//     range instead of a hardware division per bucket.
//   - Query medians select in place over reusable scratch (quickselect
//     plus median networks for the common depths) — no sorting, no
//     allocation — and an update immediately followed by a query of the
//     same index reuses the update's hash evaluations.
//   - Candidate tracking is a bounded min-heap over a linear-probe
//     index: Offer never allocates once warm.
//
// Measured on the Figure 1 benchmarks (bench_test.go, containerized
// linux/amd64, Go 1.24; before/after binaries interleaved over 5
// rounds to cancel machine drift, medians reported), this pipeline
// rebuild moved the two hottest update paths from
//
//	BenchmarkFig1HeavyHittersStrict   669 ns/op  1 alloc/op  ->  184 ns/op  0 allocs/op  (3.6x; 4.1x on min-vs-min)
//	BenchmarkFig3AlphaL1Sampler      3059 ns/op  4 allocs/op -> 1002 ns/op  0 allocs/op  (3.1x)
//
// Those are one host's numbers at one commit. The repository's
// benchmark is bench/ (bench/README.md, BENCHMARK.json): regime-pinned
// workloads, end-to-end metrics and a per-layer ledger, compared as
// same-run A/B pairs against the parent commit.
//
// Beneath the batch evaluators sits a dispatchable kernel layer
// (internal/hash): the inner loops — Horner chains over 2^61 - 1,
// bucket+sign extraction, row gathers, column medians — route through
// a table chosen once at init. On amd64 CPUs with AVX2 the table
// points at hand-written 4-lane assembly (VPMULUDQ 32-bit-halves
// decomposition of the Mersenne-61 multiply); everywhere else, and
// under the purego build tag (`go test -tags purego ./...`), it
// points at the scalar loops. The two paths are bit-identical —
// asserted per kernel by differential and fuzz tests and per
// structure by whole-state wire comparisons — so sketches hashed on
// different hosts still merge exactly.
//
// The row-structured kernels are FUSED: one entry point takes the
// flat coefficient (or table) bundle for all sketch rows plus the row
// width and loops rows inside the call, so a whole multi-row batch
// evaluation (Buckets.BucketSignsBatch, the
// GatherSignRows/GatherSignDiffRows query gathers) pays ONE vector
// entry cost — the per-call vector-unit power-up after VZEROUPPER,
// ~1.5us on the reference Xeon — instead of one per row. Each
// dispatch compares its total key count (rows x batch length for the
// fused forms) against a per-family cutover and routes below-bar calls
// to the scalar loops. The cutovers are one fixed table, each family's
// scalar-vs-vector crossover on the reference host, so dispatch is a
// function of the call's size alone and every process routes the same
// work the same way; nothing overrides them, and purego builds keep
// the scalar loops. hash.KernelCutovers and hash.KernelCutoverSource
// expose the values. Single-CPU hosts see the full win — the
// kernels vectorize within one core, not across cores. The measured
// ratios per kernel, and what an operator can read and force, are in
// README § "the vector kernel layer".
//
// # Batched ingest: the plan → hash → apply columnar pipeline
//
// Every structure accepts a batch of updates in one call — the
// preferred high-throughput path:
//
//	batch := make([]bounded.Update, 0, 4096)
//	// ... append network reads ...
//	hh.UpdateBatch(batch) // one call per structure per batch
//
// The three ingest entry points have three roles, stated once beside
// the one shared helper (core.UpdateBatch): Update is the per-item
// ORACLE the differential tests hold the batch path to (it keeps its
// own scalar hashing because it is the reference), UpdateColumns is
// the PATH, and UpdateBatch is plan + UpdateColumns and nothing else.
//
// Internally every batch runs a four-stage columnar pipeline:
//
//  1. PLAN — the batch is laid out as contiguous index and delta
//     columns in a pooled arena Batch (UpdateBatch does this for you;
//     PlanBatch + UpdateColumns is the explicit form, and lets one
//     planned batch fan across several structures). The batch also
//     carries its DISTINCT PLAN, built the first time a structure asks
//     and kept until the index column changes: the distinct indices in
//     first-occurrence order, and for every update the ordinal of its
//     index (an open-addressed table stamped by generation and keyed
//     per process: no map, nothing cleared, nothing allocated once
//     warm). A batch repeats indices — 0.3 to 0.6 distinct per update
//     on the benchmark's streams.
//  2. HASH — batch evaluators fill whole columns in straight-line
//     multiply-add loops, no per-item function calls. The three PLANNED
//     kinds — the CSSS heavy hitters, the L0 estimator (with its rough
//     and exact side structures) and the support sampler — hash the
//     DISTINCT column, once per batch; the dense Count-Sketch
//     structures hash the index column as it stands.
//  3. APPLY — the planned kinds apply THROUGH THE ORDINALS: an update
//     reads its index's hashes, it does not recompute them. What only
//     sums is coalesced per distinct index first — CSSS's rows (per
//     index and sign: the mass at sampling rate 1, what each row kept
//     once sampling), the L0 estimator's two bin matrices (the deltas
//     summed mod p) — which is exact because the adds commute and
//     wrap, or reduce, associatively. What depends on
//     the order of updates (an exact counter's overflow latch, a
//     sparse-recovery cell's count peak) applies update by update.
//  4. REFRESH — candidate tracking re-estimates the batch's distinct
//     indices and offers each to the tracker (one shared step,
//     topk.Refresher). The CSSS heavy hitters read those estimates off
//     the SAME columns stage 2 filled and keep an admitted index's
//     columns, so a HeavyHitters read hashes nothing; the Count-Sketch
//     backed structures and the L1 sampler's copies take one further
//     batched hash pass over the distinct column.
//
// Once CSSS is sampling (sampling exponent p >= 1, the regime past 2S
// units where a long-lived monitor spends its life) two steps run
// between HASH and APPLY: THIN draws each update's per-row sampling
// decisions for a whole run of updates below the next halving
// boundary; then either ACCUMULATE adds a unit update's row hits to its
// index's per-row counts (16-bit lanes in the batch's scratch, swept
// before 2^16 - 1 more unit updates could wrap one) and APPLY adds two
// counts per DISTINCT index per row, or COMPACT packs the updates some
// row kept — the index's ordinal, units kept, row mask — and APPLY adds
// those survivors one by one. The run decides: it accumulates when the
// expected number of surviving updates, n(1 - (1 - 2^-p)^rows) of its
// n, is at least twice the batch's distinct count, and compacts
// otherwise (sparse keys, deep sampling: a sweep over every distinct
// index would cost more than the few survivors); the table ends the
// same either way. p = 0 is the same run loop with nothing thinned
// away, and only the one update that lands on a halving boundary takes
// the per-item path.
//
// The windowed kinds (the L0 estimator, its constant-factor level
// estimator, the support sampler) keep only the rows / levels around
// the rough estimate R_t, which never falls (Corollary 2) and so moves
// O(log n) times in a stream's life. Their batches are CUT AT THE
// WINDOW EVENTS AND BATCHED BETWEEN THEM: the rough estimator scans the
// distinct column (a repeat only ORs in level bits its first occurrence
// set, so only a first occurrence can raise R_t) and reports the first
// index that does; the batch is cut before that index's first update,
// the window re-syncs — the raising update is applied under the window
// it produces, the per-item order rough → sync → apply — and stages 2
// and 3 run between cuts against a dense row/level array. A batch with
// zero deltas, or longer than a column chunk, is compacted and split
// first and each piece planned. All three hold one window type,
// l0.Window (see its comment), over the level-indexed slot set the
// interval-schedule window also drives.
//
// The columnar path is bit-for-bit identical to feeding the same
// updates through Update: counter adds commute, per-counter write
// order is preserved where it shows, and the rng draw order is the
// contract — CSSS's thin step makes exactly the draws the per-item
// path makes for the same updates, in the same order, the windowed
// kinds draw nothing, and the precision sampler and the sampled
// interval-schedule structures (sampled Cauchy, inner product) still
// apply per-item exactly where their draws occur. Differential tests
// assert this equality per structure and through the engine at 1/2/4/8
// shards. The one exception is the strict L1 estimator, whose columnar
// path equals per-item feeding in LAW, not in bytes: its Morris clock
// ticks about once per 2^v units, and between two ticks the live levels
// stand still, so a batch is walked tick to tick — level 0 takes the
// stretch's P positive and N negative units exactly, each sampled level
// j one Binomial(P, s^-j) and one Binomial(N, s^-j) — the joint law of
// one coin per unit per level at O(ticks + live levels) draws per
// batch, where Update draws per unit. Its batch boundaries are part of
// the call sequence; its estimate is exact on both paths while level 0
// answers.
//
// # Querying: capability-typed interfaces and columnar batched reads
//
// The query side mirrors the ingest side. Where Sketch describes what
// every structure consumes, six small capability interfaces describe
// what each structure can answer — generic consumers declare the
// capability they need instead of switching on concrete types:
//
//	PointQuerier       Estimate(i) float64       HeavyHitters, L2HeavyHitters
//	BatchPointQuerier  + EstimateBatch/Columns   HeavyHitters, L2HeavyHitters
//	ScalarQuerier      Estimate() float64        L1Estimator, L0Estimator, InnerProduct
//	SetQuerier         Members() []uint64        HeavyHitters, L2HeavyHitters, SupportSampler
//	SampleQuerier      Sample() (Sample, bool)   L1Sampler
//	Prober             Contains(i) bool          SupportSampler
//
// (The authoritative table is the compile-time assert block in
// querier.go; kindTable in sketch.go is its Sketch counterpart.)
//
// Batched reads run the same plan → hash → apply shape as batched
// writes, with "apply" replaced by "gather": EstimateBatch hashes the
// WHOLE index set in one batch evaluation per sketch row, gathers the
// per-row estimates in row-major table sweeps (each table row's reads
// happen while that row is cache-resident), and selects the per-index
// medians at the end — one hash pass for the whole index set instead
// of one per index, bit-identical to per-index Estimate. The two-tier
// split mirrors UpdateBatch/UpdateColumns:
//
//	ests := hh.EstimateBatch(idxs)       // convenience: one call, pooled scratch
//
//	b := bounded.GetBatch()              // explicit: plan once, query repeatedly
//	b.LoadKeys(idxs)
//	out := make([]float64, b.Len())
//	hh.EstimateColumns(b, out)           // reuses b's hash-column scratch
//	bounded.PutBatch(b)
//
// Queries share per-structure scratch with updates (that is where the
// zero allocations come from), so a structure is single-goroutine for
// queries AND updates — shard across instances, or query through the
// engine, for parallel readers. What a query writes is only that
// scratch, never the sketch: the sparse-recovery decode under
// SupportSampler's Recover / Contains / ProbeBatch and under
// SyncSketch.Decode peels a scratch copy of the cells, so answers
// repeat and marshaled bytes do not depend on what was asked before.
//
// Every method on a zero-value structure (never constructed, or left
// untouched by a failed UnmarshalBinary) — its queries, Update,
// UpdateBatch, UpdateColumns, SpaceBits, Clone and CloneInto — panics
// with a diagnostic that names the structure and the fix ("construct
// with NewX or restore with UnmarshalBinary first") instead of
// nil-panicking deep inside an internal package. Merge, MarshalBinary
// and SyncSketch's SubRemote and Decode return it as an error, and
// UnmarshalBinary is the fix: it works on a zero value.
//
// # Concurrency and the sharded ingest engine
//
// Each structure is single-goroutine: updates AND queries reuse
// per-structure scratch buffers (that reuse is where the zero
// allocations come from), so neither concurrent updates nor concurrent
// queries on one structure are safe.
//
// For parallel ingest, use the repro/engine package instead of locking
// a structure: engine.New(cfg, engine.Options{Shards: S}) owns S
// single-writer shards (one goroutine each, fed through bounded batch
// channels whose blocking IS the backpressure), hash-partitions every
// ingested batch across them with the library's fast-range hash, and
// answers queries from merged snapshots. That design leans on the
// mergeability layer in this package: every structure exposes the
// Sketch interface's
//
//	Merge(other Sketch) error      // fold a same-Config instance in; counters add
//	CloneInto(dst Sketch) Sketch   // deep snapshot into dst's storage, safe to merge/query elsewhere
//
// because all of the paper's sketches are linear (or monotone) in their
// input stream — Count-Sketch/CSSS tables add coordinate-wise (CSSS
// aligns sampling rates by extra halvings first — of the receiver or of
// a COPY of the argument's table: other is read), subsampling bins add
// modulo the shared prime, candidate trackers re-rank the union under
// merged estimates, and InnerProduct's f- and g-sketches each add
// coordinate-wise. Merge requires both instances to come from the SAME
// Config (seed included) and reports a descriptive error otherwise; in
// the sketches' exact regimes a merged snapshot is bit-identical to a
// single-writer structure fed the concatenated stream, which the
// engine's differential tests assert. MergeAll(dst, parts) builds the
// union of k parts into dst's storage (the engine's merged view and the
// aggregator's fleet view go through it): the heavy-hitters kinds sum
// their tables in one pass — bytes equal to the pairwise chain
// parts[0].CloneInto(dst), then Merge of each later part, with the
// same draws — and re-rank the union of every part's candidates once,
// keeping its top under the merged estimates in a layout that does not
// depend on the order of the parts; every other kind runs that chain.
// One caveat: InnerProduct
// sketches TWO streams, so the engine's single-partition Ingest does
// not feed it — merge InnerProduct instances directly (each site calls
// UpdateF/UpdateG) rather than through engine shards.
//
// The engine's Ingest is itself columnar: one batch hash evaluation
// computes every update's shard, indices and deltas scatter into
// per-shard column batches, and each shard goroutine receives
// ready-to-apply columns. Routed queries bypass snapshots entirely:
// Engine.Estimate routes to the index's OWNING shard (the partition
// hash sends every update for an index to one shard) and runs in that
// shard's goroutine — no all-shard flush barrier, no merged-view
// rebuild (Engine.SnapshotBuilds counts rebuilds; routed queries never
// move it). Engine.EstimateBatch is the batched form and the read-side
// mirror of Ingest: one hash evaluation computes every queried index's
// owning shard, the index set scatters by column, shards answer their
// columns concurrently with the structures' batched readers, and the
// results reassemble in input order — bit-identical to per-index
// Estimate, and >= 2x cheaper per index at batch >= 256 because the
// per-query shard crossing amortizes across the batch.
// Engine.Probe(i) routes a support membership probe the same way, and
// Engine.Support unions the shards' live recoveries (partition
// completeness makes them disjoint) without a single clone or merge.
// The five routed reads share one sequence and are always routed:
// whole-engine state moves only as a partitioned snapshot, which
// restores shard-for-shard into the topology it was taken at
// (engine.RestoreCheckpoint adopts it from the header; any other shard
// count is an error, since sketch state cannot be re-keyed).
// Global queries (HeavyHitters, L1, ...) answer from the merged view,
// one row per kind behind a generation-tagged cache that is checked
// before the engine mutex, so query bursts do not stall producers. What
// a stale row costs to build — and why a one-shard engine's read builds
// none, copies nothing and hashes nothing — is in the README
// (Merge-on-query).
//
// Pick the engine when ingest throughput is the bottleneck and cores
// are available (producers can be many goroutines; Ingest is
// concurrency-safe); pick a direct structure when one goroutine keeps
// up — a global engine query pays S clones plus S-1 merges of the
// structure it asks for, once per generation; a direct structure
// answers from live state.
// examples/shardedingest walks the full pattern end to end.
//
// Invalid configurations no longer clamp silently: Config.Validate
// rejects N < 2, N > 2^44, Eps outside (0,1) and Alpha < 1, and every
// constructor — engine.New included — returns that error.
//
// # Observability
//
// The repro/internal/obs package is a zero-dependency, allocation-free
// metrics core (cache-line-padded atomic counters, log2-bucketed
// lock-free latency histograms, gauges) threaded through the engine,
// the shard workers, the columnar batch arena, and the kernel
// dispatcher. Engine.Stats() returns an exact point-in-time snapshot —
// ingest calls/keys/batches with latency, query counts and latency by
// path (point / batched / merged), snapshot rebuilds, flush and close
// timings, and per-shard applied work, busy time, send stalls, queue
// depth and the regime each shard's sketches are in (the CSSS sampling
// exponent, and the L1 estimator's answering level j*). After a Flush the identities are exact: batches applied
// sum to batches sent, keys applied sum to keys ingested.
// Engine.ExposeMetrics mounts those series on an obs.Registry, and
// obs.Handler() serves every registered metric as Prometheus text or
// JSON (?format=json); examples/netmon -listen is the live demo.
// Shard goroutines carry pprof labels (shard=N) and merged-view
// rebuilds emit runtime/trace task/regions (engine.snapshotBuild,
// engine.cloneShards, engine.mergeShards, shard.apply) when tracing is
// enabled. There is one build: the layer is always on, and the
// benchmark's end-to-end metrics are measured with it.
//
// # Networked aggregation
//
// The repro/internal/netagg package and the cmd/bdagent + cmd/bdaggd
// binaries run the paper's distributed monitoring scenario as a real
// service: site Agents ingest their local substream through the
// sharded engine and periodically ship engine-merged snapshots — as
// framed repro/internal/netproto messages over TCP — to an Aggregator
// that holds every agent's latest state, merges it into a cached
// global view, and answers Client queries for the union stream.
//
//	site stream ─▶ Agent[engine] ──SNAPSHOT/ACK──▶ ┐
//	site stream ─▶ Agent[engine] ──SNAPSHOT/ACK──▶ ├─ Aggregator ──ANSWER──▶ Client
//	site stream ─▶ Agent[engine] ──SNAPSHOT/ACK──▶ ┘
//
// The protocol is HELLO/WELCOME (version negotiation plus an exact
// Config-echo admission gate — same seed or the sketches are not
// mergeable), SNAPSHOT/ACK (full engine-merged state per enabled
// structure; the ACK carries P, the CSSS exponent of the aggregator's
// heavy-hitters union after the commit), and QUERY/ANSWER (point
// estimates, heavy hitters, L1, support). An agent thins its heavy
// hitters to the P its ACK carries (Engine.RaiseSampleExponent) and
// samples at 2^-P from then on: one fleet clock, so the aggregator's
// rebuilds add tables already at the union's rate and halve only in
// the rounds in which the union crosses a boundary of the Figure 2
// schedule, at the price of local answers as coarse as the fleet's.
// Between those rounds a commit is a delta: the aggregator shifts its
// view's heavy-hitters table by the agent's new table minus its old
// one (HeavyHitters.Shift — tables at one exponent below the next
// halving are integer tables, so their union is their sum), and the
// next heavy-hitters query applies the threshold rule to the agents'
// candidates against that table (HeavyHitters.HeavyHittersOver, what
// HeavyHitters.Rerank and a read would return, without the re-rank),
// O(agents × candidates) instead of O(agents × state). A query
// refreshes only the kind it reads. SNAPSHOTs are
// decoded into retired agent sets (UnmarshalSketchInto): a
// HeavyHitters or L1Estimator of the blob's shape is refilled in
// place, neither its tables nor its hash wiring nor its generator
// built again, to the bytes and draws of a fresh decode.
// Sync is generation-gated: an idle agent whose engine
// Generation has not moved since the last ACK ships nothing at all.
// Because snapshots carry full state, a resend after a lost ACK or a
// reconnect REPLACES the agent's prior contribution rather than
// double-counting, and the aggregator commits each snapshot
// atomically (every blob decodes or none applies), admitting blobs
// through engine.DecodeBlobs: a blob whose Config echo differs is
// refused at SNAPSHOT time (ERROR reply, nothing committed, the state
// already held keeps answering), and a checkpoint carrying one is
// refused on open. In the sketches'
// exact regimes the aggregator's answers are bit-identical to one
// engine fed every site's stream — asserted over real loopback
// sockets, mid-run reconnect included, by internal/netagg's
// differential test. examples/distributedmerge is the one-shot,
// pipe-based precursor showing the same frames without the lifecycle.
package bounded
