package obs

import (
	"sync/atomic"
	"time"
)

// Enabled is always true: the package has one build, and it records.
// The constant stays for the benchmark's provenance field.
const Enabled = true

// epoch anchors Now(): readings are monotonic nanoseconds since package
// init (time.Since uses the runtime's monotonic clock, so wall-clock
// steps do not corrupt latency measurements).
var epoch = time.Now()

// Now returns the current monotonic timestamp in nanoseconds — the
// start token for Histogram.ObserveSince.
func Now() int64 { return int64(time.Since(epoch)) }

// Counter is a monotonically increasing atomic counter padded to its
// own cache line, so counters laid out in arrays or adjacent struct
// fields do not false-share when distinct goroutines (one per shard)
// write them concurrently. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters are monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, live bytes).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a lock-free log2-bucketed latency histogram: recording
// is bits.Len64 plus two-or-three atomic adds, concurrent writers never
// block, and there is no resizing or rotation to coordinate. The zero
// value is ready to use. See the package comment for the bucket layout.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	_       [48]byte // keep count/sum off the first buckets' line
	buckets [NumHistBuckets]atomic.Int64
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[histBucket(ns)].Add(1)
}

// ObserveSince records the elapsed time since start, a token from
// Now().
func (h *Histogram) ObserveSince(start int64) { h.Observe(Now() - start) }

// Snapshot copies the histogram. Concurrent recording may land between
// the field reads — the snapshot is per-cell atomic, not a consistent
// cut (Count can lag or lead the bucket total by in-flight writers).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}
