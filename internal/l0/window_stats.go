// window_stats.go answers "which regime is the estimator in": how often
// the Figure 7 row window moves, and how many rows it holds. Both are
// obs primitives (zero-size no-ops under -tags noobs), process-wide like
// the CSSS regime counters, and written once per window event — never
// per key.
package l0

import "repro/internal/obs"

var (
	windowEvents obs.Counter // updates that raised R_t and re-synced an Estimator's row window
	liveRows     obs.Gauge   // rows held by the Estimator that synced last
)

func init() {
	obs.Default.CounterFunc("", "repro_l0_window_events_total",
		"updates that raised the rough L0 estimate and moved an estimator's row window", windowEvents.Load)
	obs.Default.GaugeFunc("", "repro_l0_live_rows",
		"rows maintained by the L0 estimator that last synced its window", liveRows.Load)
}
