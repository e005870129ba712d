// dispatch_stats.go counts kernel dispatches per family and per route
// (vector assembly vs scalar loop), answering the question the vector
// cutovers raise on real workloads: how often does a call actually
// clear its family's bar? The counters are obs primitives, and
// recording is one predictable branch plus one uncontended atomic add
// per batch-evaluator call, off the per-key path entirely. Zero-length sweeps early-out in the public
// entry points BEFORE reaching a counter, so the scalar/vector ratios
// describe real dispatches only.
package hash

import "repro/internal/obs"

// dispatchCounters is one kernel family's vector/scalar call pair.
type dispatchCounters struct {
	fam    kernelFamily
	scalar obs.Counter
	vector obs.Counter
}

// count records calls dispatches processing n keys each: the call
// routes to vector assembly exactly when the active table has vector
// kernels and n clears the family's calibrated cutover. Fused all-rows
// entry points pass the TOTAL key volume (rows * column length) — the
// same quantity their wrappers compare — so the tallies stay exact
// per batch. (A vector-routed call still hands its sub-4 tail to the
// scalar twin; the counter tracks the dispatch decision, not per-key
// lane occupancy.)
func (d *dispatchCounters) count(n int, calls int64) {
	if active.vector && n >= cutoverValues[d.fam] {
		d.vector.Add(calls)
	} else {
		d.scalar.Add(calls)
	}
}

var (
	bucketSignsDispatch = dispatchCounters{fam: famBucketSigns} // fused BucketSignsBatch calls
	fieldDispatch       = dispatchCounters{fam: famField}       // FieldBatch (k2/k4/fallback)
	rangeDispatch       = dispatchCounters{fam: famRange}       // RangeBatch
	gatherDispatch      = dispatchCounters{fam: famGather}      // GatherSignRows + GatherSignDiffRows
	medianDispatch      = dispatchCounters{fam: famMedian}      // MedianOf7Columns
)

// DispatchStats is a point-in-time view of the kernel dispatch
// counters: per family, how many batch-evaluator calls routed to the
// vector assembly vs the scalar loop.
type DispatchStats struct {
	// Every family counts whole batch-evaluator calls. BucketSigns
	// counts fused BucketSignsBatch calls (all Count-Sketch rows in one
	// dispatch) — before the fused kernels it counted one dispatch per
	// row, so ratios are not comparable across that change.
	BucketSignsScalar, BucketSignsVector int64
	FieldScalar, FieldVector             int64
	RangeScalar, RangeVector             int64
	GatherScalar, GatherVector           int64
	MedianScalar, MedianVector           int64
}

// KernelDispatchStats returns the current dispatch counters.
func KernelDispatchStats() DispatchStats {
	return DispatchStats{
		BucketSignsScalar: bucketSignsDispatch.scalar.Load(),
		BucketSignsVector: bucketSignsDispatch.vector.Load(),
		FieldScalar:       fieldDispatch.scalar.Load(),
		FieldVector:       fieldDispatch.vector.Load(),
		RangeScalar:       rangeDispatch.scalar.Load(),
		RangeVector:       rangeDispatch.vector.Load(),
		GatherScalar:      gatherDispatch.scalar.Load(),
		GatherVector:      gatherDispatch.vector.Load(),
		MedianScalar:      medianDispatch.scalar.Load(),
		MedianVector:      medianDispatch.vector.Load(),
	}
}

// Totals sums both routes of every family — a quick activity signal
// for tables and logs.
func (s DispatchStats) Totals() (scalar, vector int64) {
	scalar = s.BucketSignsScalar + s.FieldScalar + s.RangeScalar + s.GatherScalar + s.MedianScalar
	vector = s.BucketSignsVector + s.FieldVector + s.RangeVector + s.GatherVector + s.MedianVector
	return
}

func init() {
	families := []struct {
		name string
		d    *dispatchCounters
	}{
		{"bucket_signs", &bucketSignsDispatch},
		{"field", &fieldDispatch},
		{"range", &rangeDispatch},
		{"gather", &gatherDispatch},
		{"median", &medianDispatch},
	}
	for _, f := range families {
		obs.Default.CounterFunc("", "repro_kernel_dispatch_total",
			"kernel dispatches by family and route", f.d.scalar.Load,
			obs.Label{Key: "family", Value: f.name}, obs.Label{Key: "route", Value: "scalar"})
		obs.Default.CounterFunc("", "repro_kernel_dispatch_total",
			"kernel dispatches by family and route", f.d.vector.Load,
			obs.Label{Key: "family", Value: f.name}, obs.Label{Key: "route", Value: "vector"})
	}
}
