// window_stats.go answers "which regime is the sampler in": how often
// the Figure 8 level window moves, how many levels it holds, and how
// much of a batch's hash work its distinct plan leaves. Process-wide
// like the CSSS regime counters; l0.Window writes them (see
// l0.WindowStats).
package support

import (
	"repro/internal/l0"
	"repro/internal/obs"
)

var levelStats l0.WindowStats

func init() {
	obs.Default.CounterFunc("", "repro_support_window_events_total",
		"updates that raised the rough L0 estimate and moved a support sampler's level window", levelStats.Events.Load)
	obs.Default.GaugeFunc("", "repro_support_live_levels",
		"level sketches maintained by the support sampler that last synced its window", levelStats.Live.Load)
	levelStats.RegisterPlan("support")
}
