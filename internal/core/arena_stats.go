// arena_stats.go instruments the batch arena. The counters are
// package-level obs primitives and register themselves into the default
// observability registry at init — the arena is process-wide state, so
// its metrics are too.
package core

import "repro/internal/obs"

// maxRetainedCap is the largest Idx capacity (in rows) PutBatch returns
// to the pool. The pool converges to the workload's batch-size
// high-water mark, which is the point: one pathological million-row
// batch must not pin megabytes of column scratch in every pooled buffer
// forever. Oversized batches are dropped (and counted) instead.
const maxRetainedCap = 1 << 20

var (
	arenaGets      obs.Counter // batches handed out by GetBatch
	arenaMisses    obs.Counter // gets that allocated (pool was empty)
	arenaPuts      obs.Counter // batches returned by PutBatch
	arenaOversized obs.Counter // returns dropped by the retain cap
)

// BatchArenaStats is a point-in-time view of the arena counters.
type BatchArenaStats struct {
	// Gets counts batches handed out; Misses the subset that allocated a
	// fresh Batch because the pool was empty (GC can empty it at any
	// time, so Misses is a churn signal, not a leak detector).
	Gets   int64
	Misses int64
	// Puts counts batches returned to the pool; Oversized the subset
	// dropped because their retained capacity exceeded the arena cap.
	Puts      int64
	Oversized int64
}

// ArenaStats returns the current arena counters.
func ArenaStats() BatchArenaStats {
	return BatchArenaStats{
		Gets:      arenaGets.Load(),
		Misses:    arenaMisses.Load(),
		Puts:      arenaPuts.Load(),
		Oversized: arenaOversized.Load(),
	}
}

func init() {
	obs.Default.CounterFunc("", "repro_arena_batch_gets_total",
		"batches handed out by the columnar batch arena", arenaGets.Load)
	obs.Default.CounterFunc("", "repro_arena_batch_misses_total",
		"arena gets that allocated because the pool was empty", arenaMisses.Load)
	obs.Default.CounterFunc("", "repro_arena_batch_puts_total",
		"batches returned to the columnar batch arena", arenaPuts.Load)
	obs.Default.CounterFunc("", "repro_arena_batch_oversized_total",
		"arena returns dropped by the capacity retain cap", arenaOversized.Load)
}
