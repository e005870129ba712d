// window_stats.go answers "which regime is the sampler in": how often
// the Figure 8 level window moves, and how many levels it holds. Both
// are obs primitives (zero-size no-ops under -tags noobs), process-wide
// like the CSSS regime counters, and written once per window event —
// never per key.
package support

import "repro/internal/obs"

var (
	windowEvents obs.Counter // updates that raised R_t and re-synced a Sampler's level window
	liveLevels   obs.Gauge   // levels held by the Sampler that synced last
)

func init() {
	obs.Default.CounterFunc("", "repro_support_window_events_total",
		"updates that raised the rough L0 estimate and moved a support sampler's level window", windowEvents.Load)
	obs.Default.GaugeFunc("", "repro_support_live_levels",
		"level sketches maintained by the support sampler that last synced its window", liveLevels.Load)
}
