// regime_stats.go counts what UpdateColumns did with the unit mass it
// was handed, by route — the question a batched sampled regime raises
// on a real workload: does the steady state actually take the batch
// path, or does it keep falling to the per-item one? The counters are
// obs primitives (zero-size no-ops under -tags noobs), process-wide
// like the kernel dispatch tallies, and recording is one uncontended
// atomic add per run or per halving, never per key. Per-item
// Update/UpdateWeighted calls are not counted: they are the per-key
// path.
package csss

import "repro/internal/obs"

var (
	unitsRate1      obs.Counter // unit mass applied by runs at p = 0 (nothing to thin)
	unitsThinned    obs.Counter // unit mass thinned and applied by runs at p > 0
	unitsScalar     obs.Counter // unit mass UpdateColumns handed to the scalar chunk loop
	survivorsHashed obs.Counter // survivors the apply stage hashed, all runs
	halvings        obs.Counter // counter halvings, scheduled and merge-alignment alike
)

// RegimeStats is a point-in-time view of the CSSS regime counters. All
// zero under -tags noobs.
type RegimeStats struct {
	// UnitsRate1, UnitsThinned and UnitsScalar split the unit mass
	// UpdateColumns consumed by the route that applied it. Scalar is
	// the per-item chunk loop: the update that lands on or crosses a
	// halving boundary, a single update too wide for a survivor's count
	// field, and every update of a sketch too deep for its row mask.
	// A steady state that batches shows Scalar growing by one update
	// per halving, not with the stream.
	UnitsRate1, UnitsThinned, UnitsScalar int64
	// SurvivorsHashed counts the keys the apply stage hashed: every
	// update of a rate-1 run, and at p > 0 only those at least one row
	// sampled.
	SurvivorsHashed int64
	// Halvings counts halveOnce steps (the schedule's and Merge's).
	Halvings int64
}

// DispatchStats returns the current regime counters.
func DispatchStats() RegimeStats {
	return RegimeStats{
		UnitsRate1:      unitsRate1.Load(),
		UnitsThinned:    unitsThinned.Load(),
		UnitsScalar:     unitsScalar.Load(),
		SurvivorsHashed: survivorsHashed.Load(),
		Halvings:        halvings.Load(),
	}
}

func init() {
	for _, r := range []struct {
		route string
		c     *obs.Counter
	}{{"rate1", &unitsRate1}, {"thinned", &unitsThinned}, {"scalar", &unitsScalar}} {
		obs.Default.CounterFunc("", "repro_csss_units_total",
			"unit mass CSSS UpdateColumns applied, by route", r.c.Load,
			obs.Label{Key: "route", Value: r.route})
	}
	obs.Default.CounterFunc("", "repro_csss_survivors_total",
		"keys the CSSS apply stage hashed after thinning", survivorsHashed.Load)
	obs.Default.CounterFunc("", "repro_csss_halvings_total",
		"CSSS counter halvings (scheduled and merge alignment)", halvings.Load)
}
