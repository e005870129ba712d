// window_stats.go answers "which regime is the estimator in": how often
// the Figure 7 row window moves, how many rows it holds, and how much of
// a batch's hash work its distinct plan leaves. Process-wide like the
// CSSS regime counters; Window writes them (see WindowStats).
package l0

import "repro/internal/obs"

var rowStats WindowStats

// latches counts the exact small-L0 structures an update latched LARGE;
// a merge or a decode that inherits a latch is not counted.
var latches obs.Counter

func init() {
	obs.Default.CounterFunc("", "repro_l0_exact_latched_total",
		"exact small-L0 structures an update latched LARGE; they keep no counters from then on", latches.Load)
	obs.Default.CounterFunc("", "repro_l0_window_events_total",
		"updates that raised the rough L0 estimate and moved an estimator's row window", rowStats.Events.Load)
	obs.Default.GaugeFunc("", "repro_l0_live_rows",
		"rows maintained by the L0 estimator that last synced its window", rowStats.Live.Load)
	rowStats.RegisterPlan("l0")
}

// RegisterPlan publishes s's plan counters under the L0 family's two
// structure-labelled series.
func (s *WindowStats) RegisterPlan(structure string) {
	label := obs.Label{Key: "structure", Value: structure}
	obs.Default.CounterFunc("", "repro_l0_batch_keys_total",
		"nonzero updates in the planned batches an L0-family structure ingested", s.BatchKeys.Load, label)
	obs.Default.CounterFunc("", "repro_l0_keys_hashed_total",
		"distinct keys an L0-family structure hashed, once per planned batch", s.KeysHashed.Load, label)
}
