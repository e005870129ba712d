package bounded

import "fmt"

// This file is the public face of the query side: capability-typed
// interfaces mirroring the ingest pipeline's Sketch contract. Where
// Sketch describes what every structure can CONSUME (updates, columnar
// batches, merges, wire bytes), the capability interfaces describe what
// each structure can ANSWER — and because the answers differ in kind
// (a point estimate, a scalar norm, a coordinate set, a sample, a
// membership verdict), there is one small interface per capability
// instead of one wide interface full of "not supported" stubs. Generic
// consumers (the engine's query fan-out, dashboards, cmd/bdquery)
// declare the capability they need and accept any structure satisfying
// it:
//
//	capability        method set                       satisfied by
//	PointQuerier      Estimate(i) float64              HeavyHitters, L2HeavyHitters
//	BatchPointQuerier + EstimateBatch, EstimateColumns HeavyHitters, L2HeavyHitters
//	ScalarQuerier     Estimate() float64               L1Estimator, L0Estimator, InnerProduct
//	SetQuerier        Members() []uint64               HeavyHitters, L2HeavyHitters, SupportSampler
//	SampleQuerier     Sample() (Sample, bool)          L1Sampler
//	Prober            Contains(i) bool                 SupportSampler
//	BatchProber       + ProbeBatch(idxs) []bool        SupportSampler
//
// Batched reads mirror batched writes: EstimateBatch hashes the WHOLE
// index set in one batch evaluation per row (the read twin of
// UpdateBatch's plan → hash → apply), and EstimateColumns is the
// scratch-reusing form for callers that already hold a columnar Batch
// — the same two-tier convenience/explicit split as UpdateBatch and
// UpdateColumns. Like every other query method, the batched readers
// share per-structure scratch with updates: a structure remains
// single-goroutine for queries AND updates (shard across instances, or
// use the engine, for parallel readers).
//
// Every method on a zero-value structure (never constructed, or left
// untouched by a failed UnmarshalBinary) — a query, an update, a copy —
// fails fast with a descriptive panic naming the structure and the fix,
// instead of nil-panicking deep inside an internal package. The one
// guard is of.use in body.go. Merge and MarshalBinary return the
// diagnostic as an error instead, as do SyncSketch's SubRemote and
// Decode.

// PointQuerier answers point queries: Estimate returns the structure's
// estimate of the frequency f_i.
type PointQuerier interface {
	Estimate(i uint64) float64
}

// BatchPointQuerier extends PointQuerier with columnar batched reads —
// one hash pass over the whole index set instead of one per index.
type BatchPointQuerier interface {
	PointQuerier
	// EstimateBatch returns the point estimate of every index, in input
	// order; answers are bit-identical to per-index Estimate calls
	// (duplicate indices simply repeat their estimate).
	EstimateBatch(idxs []uint64) []float64
	// EstimateColumns fills out[j] with the estimate of b.Idx[j],
	// reusing b's hash-column scratch — the allocation-conscious form
	// for callers that plan one Batch (GetBatch + LoadKeys) and query
	// repeatedly. out must hold b.Len() entries.
	EstimateColumns(b *Batch, out []float64)
}

// ScalarQuerier answers whole-stream scalar queries (a norm, a support
// size, an inner product): Estimate returns the structure's single
// headline number.
type ScalarQuerier interface {
	Estimate() float64
}

// SetQuerier answers set queries: Members returns the structure's
// recovered coordinate set (heavy hitters, support coordinates),
// sorted ascending.
type SetQuerier interface {
	Members() []uint64
}

// SampleQuerier draws samples: Sample returns one draw and whether the
// draw succeeded (samplers never fabricate an index on failure).
type SampleQuerier interface {
	Sample() (Sample, bool)
}

// Prober answers membership probes: Contains reports whether the
// structure's evidence places i in the stream's support.
type Prober interface {
	Contains(i uint64) bool
}

// BatchProber extends Prober with batched membership probes — one hash
// pass over the whole index set and at most one decode per recovery
// level, instead of both per index.
type BatchProber interface {
	Prober
	// ProbeBatch returns Contains for every index, in input order;
	// verdicts are identical to per-index Contains calls.
	ProbeBatch(idxs []uint64) []bool
}

// Compile-time capability checks, alongside kindTable in
// sketch.go: these lines are the authoritative table of which
// structure satisfies which capability.
var (
	_ BatchPointQuerier = (*HeavyHitters)(nil)
	_ BatchPointQuerier = (*L2HeavyHitters)(nil)
	_ ScalarQuerier     = (*L1Estimator)(nil)
	_ ScalarQuerier     = (*L0Estimator)(nil)
	_ ScalarQuerier     = (*InnerProduct)(nil)
	_ SetQuerier        = (*HeavyHitters)(nil)
	_ SetQuerier        = (*L2HeavyHitters)(nil)
	_ SetQuerier        = (*SupportSampler)(nil)
	_ SampleQuerier     = (*L1Sampler)(nil)
	_ Prober            = (*SupportSampler)(nil)
	_ BatchProber       = (*SupportSampler)(nil)
)

// batchPointImpl is the internal contract behind the public batched
// readers: one batch hash pass over the key column into b's scratch
// (heavy.AlphaL1 and heavy.AlphaL2 both satisfy it).
type batchPointImpl interface {
	QueryColumns(b *Batch, keys []uint64, est []float64)
}

// estimateBatchImpl is the shared body of the EstimateBatch methods:
// allocate the output, borrow a pooled batch for hash scratch, answer
// the whole index set in one columnar read.
func estimateBatchImpl(impl batchPointImpl, idxs []uint64) []float64 {
	out := make([]float64, len(idxs))
	if len(idxs) == 0 {
		return out
	}
	b := GetBatch()
	impl.QueryColumns(b, idxs, out)
	PutBatch(b)
	return out
}

// estimateColumnsImpl is the shared body of the EstimateColumns
// methods: validate the caller's output column, answer b.Idx in place.
func estimateColumnsImpl(impl batchPointImpl, b *Batch, out []float64) {
	outGuard("EstimateColumns", b.Len(), len(out))
	impl.QueryColumns(b, b.Idx, out)
}

// outGuard validates a caller-supplied EstimateColumns output column.
func outGuard(method string, need, got int) {
	if got < need {
		panic(fmt.Sprintf("bounded: %s output holds %d entries, need %d", method, got, need))
	}
}
