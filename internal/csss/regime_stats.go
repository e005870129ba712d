// regime_stats.go counts what UpdateColumns did with the unit mass it
// was handed, by route — the question a batched sampled regime raises
// on a real workload: does the steady state actually take the batch
// path, or does it keep falling to the per-item one? — and how many
// keys it hashed to do it. The counters are obs primitives,
// process-wide like the kernel dispatch tallies, and recording is one
// uncontended atomic add per batch, per run or per halving, never per
// key. Per-item Update/UpdateWeighted calls are not counted: they are
// the per-key path.
package csss

import "repro/internal/obs"

var (
	unitsRate1       obs.Counter // unit mass applied by runs at p = 0 (nothing to thin)
	unitsThinned     obs.Counter // unit mass thinned and applied by runs at p > 0
	unitsScalar      obs.Counter // unit mass UpdateColumns handed to the scalar chunk loop
	survivorsApplied obs.Counter // survivors the apply stage added to the table, all runs
	keySweeps        obs.Counter // table sweeps adding two sums per distinct key (applyCoalesced, sweepLanes)
	survivorSweeps   obs.Counter // table sweeps adding one count per survivor (applySurvivors)
	batchKeys        obs.Counter // updates UpdateColumns was handed, all batches
	keysHashed       obs.Counter // distinct keys UpdateColumns hashed, one pass per batch
	halvings         obs.Counter // counter halvings, scheduled and merge-alignment alike
	sampleExponent   obs.Gauge   // p of the sketch that last set or moved its exponent
)

// RegimeStats is a point-in-time view of the CSSS regime counters.
type RegimeStats struct {
	// UnitsRate1, UnitsThinned and UnitsScalar split the unit mass
	// UpdateColumns consumed by the route that applied it. Scalar is
	// the per-item chunk loop: the update that lands on or crosses a
	// halving boundary, a single update too wide for a survivor's count
	// field, and every update of a sketch too deep for its row mask.
	// A steady state that batches shows Scalar growing by one update
	// per halving, not with the stream.
	UnitsRate1, UnitsThinned, UnitsScalar int64
	// SurvivorsApplied counts the updates the apply stage added to the
	// table: every update of a rate-1 run, and at p > 0 only those at
	// least one row sampled. None of them is hashed: a survivor reads
	// its key's bucket and sign through the batch's distinct plan.
	SurvivorsApplied int64
	// KeySweeps and SurvivorSweeps count table sweeps by apply: which
	// side of the coalescing rule (coalesces) the runs fell on.
	KeySweeps, SurvivorSweeps int64
	// BatchKeys counts the updates UpdateColumns was handed and
	// KeysHashed the distinct keys among them, batch by batch — the
	// keys it hashed, once each per batch. Their ratio is what the
	// distinct plan saves.
	BatchKeys, KeysHashed int64
	// Halvings counts halveOnce steps (the schedule's and Merge's).
	Halvings int64
	// SampleExponent is p of whichever sketch in the process last set
	// it: at construction, restore, merge and each halving.
	SampleExponent int64
}

// DispatchStats returns the current regime counters.
func DispatchStats() RegimeStats {
	return RegimeStats{
		UnitsRate1:       unitsRate1.Load(),
		UnitsThinned:     unitsThinned.Load(),
		UnitsScalar:      unitsScalar.Load(),
		SurvivorsApplied: survivorsApplied.Load(),
		KeySweeps:        keySweeps.Load(),
		SurvivorSweeps:   survivorSweeps.Load(),
		BatchKeys:        batchKeys.Load(),
		KeysHashed:       keysHashed.Load(),
		Halvings:         halvings.Load(),
		SampleExponent:   sampleExponent.Load(),
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
	obs.Default.CounterFunc("", "repro_csss_sweeps_total",
		"CSSS table sweeps, by apply", keySweeps.Load, obs.Label{Key: "apply", Value: "key"})
	obs.Default.CounterFunc("", "repro_csss_sweeps_total",
		"CSSS table sweeps, by apply", survivorSweeps.Load, obs.Label{Key: "apply", Value: "survivor"})
	obs.Default.CounterFunc("", "repro_csss_survivors_total",
		"updates the CSSS apply stage added to the table after thinning", survivorsApplied.Load)
	obs.Default.CounterFunc("", "repro_csss_batch_keys_total",
		"updates CSSS UpdateColumns was handed", batchKeys.Load)
	obs.Default.CounterFunc("", "repro_csss_keys_hashed_total",
		"distinct keys CSSS UpdateColumns hashed, once per batch", keysHashed.Load)
	obs.Default.CounterFunc("", "repro_csss_halvings_total",
		"CSSS counter halvings (scheduled and merge alignment)", halvings.Load)
	obs.Default.GaugeFunc("", "repro_csss_sample_exponent",
		"sampling exponent p (rate 2^-p) of the CSSS sketch that last set it", sampleExponent.Load)
}
