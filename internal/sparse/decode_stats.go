// decode_stats.go counts what decodes found: how many came back sparse,
// how many DENSE, and how many singletons they peeled on the way. The
// counters are obs primitives, process-wide like the window-event
// tallies, and recording is two uncontended atomic adds per decode,
// never per cell.
package sparse

import "repro/internal/obs"

var (
	decodesSparse obs.Counter // decodes that recovered a vector
	decodesDense  obs.Counter // decodes that answered DENSE
	peelsTotal    obs.Counter // singletons peeled, by either kind of decode
)

func recordDecode(sparse bool, peels int) {
	if sparse {
		decodesSparse.Inc()
	} else {
		decodesDense.Inc()
	}
	peelsTotal.Add(int64(peels))
}

func init() {
	for _, v := range []struct {
		verdict string
		c       *obs.Counter
	}{{"sparse", &decodesSparse}, {"dense", &decodesDense}} {
		obs.Default.CounterFunc("", "repro_sparse_decodes_total",
			"sparse-recovery decodes, by verdict", v.c.Load,
			obs.Label{Key: "verdict", Value: v.verdict})
	}
	obs.Default.CounterFunc("", "repro_sparse_peels_total",
		"singletons peeled by sparse-recovery decodes", peelsTotal.Load)
}
