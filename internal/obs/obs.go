// Package obs is the engine-wide observability core: allocation-free,
// lock-free metric primitives (cache-line-padded counters, gauges,
// log2-bucketed latency histograms), a registry with a Prometheus-text
// / JSON HTTP exposition handler, and runtime/trace + pprof hooks — the
// substrate the sharded engine, the columnar arena and the kernel
// dispatch layer record into, and the surface the future aggregation
// services scrape.
//
// Every primitive is an atomic cell (padded to its own cache line where
// producers write concurrently), recording is a single uncontended
// atomic RMW, and the registry renders whatever the readback closures
// report at scrape time. There is one build: the layer is always on.
//
// Recording contract: Counter/Gauge/Histogram methods are safe for any
// number of concurrent writers and readers, never allocate, and never
// block. Snapshot readers (Load, Snapshot, the registry handler) see
// per-cell atomic consistency, not a cross-metric consistent cut —
// exactness across metrics requires the caller to quiesce writers
// first (the engine's Stats-after-Flush tests do exactly that).
//
// The histogram is log2-bucketed: an observation of d nanoseconds lands
// in bucket bits.Len64(d), i.e. bucket i spans [2^(i-1), 2^i) ns, which
// resolves one binary order of magnitude per bucket from 1ns to ~39h in
// NumHistBuckets cells. That is deliberately coarse: recording is one
// bits.Len64 plus two atomic adds, and latency distributions in this
// codebase spread across orders of magnitude (a routed point query is
// ~µs, a merged-view rebuild ~ms), which log buckets resolve and
// linear buckets do not.
package obs

import (
	"fmt"
	"math/bits"
	"time"
)

// NumHistBuckets is the bucket count of every Histogram: log2 buckets
// covering (0, 2^47) ns — sub-ns to ~39 hours — plus the underflow
// bucket 0 for zero/negative observations and a final catch-all.
const NumHistBuckets = 48

// histBucket maps a nanosecond observation to its bucket index.
func histBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumHistBuckets {
		return NumHistBuckets - 1
	}
	return b
}

// HistBucketBound returns the exclusive upper bound of bucket i in
// nanoseconds (2^i), and math.MaxInt64-like sentinel semantics are not
// needed: the last bucket's bound simply labels the catch-all.
func HistBucketBound(i int) int64 { return int64(1) << uint(i) }

// HistogramSnapshot is a point-in-time copy of a Histogram, the form
// the registry renders and engine.Stats embeds. The zero value is a
// valid empty snapshot.
type HistogramSnapshot struct {
	// Count is the number of observations, Sum their total in
	// nanoseconds.
	Count int64
	Sum   int64
	// Buckets[i] counts observations in [2^(i-1), 2^i) ns; Buckets[0]
	// holds zero/negative observations, the last bucket everything at or
	// beyond its lower bound.
	Buckets [NumHistBuckets]int64
}

// Mean returns the average observed duration, 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of
// the observed durations: the upper bound of the first bucket whose
// cumulative count reaches q*Count. Resolution is one binary order of
// magnitude — fit for "p99 is ~2ms", not for microbenchmarking.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Ceiling: the q-quantile is the smallest observation with at least
	// ceil(q*Count) observations at or below it.
	target := int64(q * float64(s.Count))
	if float64(target) < q*float64(s.Count) {
		target++
	}
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			return time.Duration(HistBucketBound(i))
		}
	}
	return time.Duration(HistBucketBound(NumHistBuckets - 1))
}

// String renders a compact one-line summary for logs and tables.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "count=0"
	}
	return fmt.Sprintf("count=%d mean=%v p50<=%v p99<=%v",
		s.Count, s.Mean(), s.Quantile(0.5), s.Quantile(0.99))
}

// Label is one metric label pair; the registry renders labels in
// registration order (callers keep them sorted if they care).
type Label struct {
	Key   string
	Value string
}
