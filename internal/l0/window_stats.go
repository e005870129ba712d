// window_stats.go answers "which regime is the estimator in": how often
// the Figure 7 row window moves, and how many rows it holds. Process-wide
// like the CSSS regime counters; Window writes them (see WindowStats).
package l0

import "repro/internal/obs"

var rowStats WindowStats

func init() {
	obs.Default.CounterFunc("", "repro_l0_window_events_total",
		"updates that raised the rough L0 estimate and moved an estimator's row window", rowStats.Events.Load)
	obs.Default.GaugeFunc("", "repro_l0_live_rows",
		"rows maintained by the L0 estimator that last synced its window", rowStats.Live.Load)
}
