package inner

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/stream"
)

// Merge folds another Estimator built from the same seed into this one.
// Both of the estimator's stream sketches are linear in their sampled
// inputs: f-levels live at the same index j in both instances sample at
// the same rate base^-j, so their bins add coordinate-wise, and likewise
// for the g-levels; levels live in only one survive as-is. The combined
// positions re-run the interval schedule, pruning levels outside the
// merged stream's active window. While both sides are still in the
// rate-1 regime (t < base, only level 0 live) the merge is exact: bins
// equal those of a single estimator that ingested both streams.
func (e *Estimator) Merge(other *Estimator) error {
	if other == nil {
		return fmt.Errorf("inner: merge with nil Estimator")
	}
	if e.params != other.params || e.prime != other.prime {
		return fmt.Errorf("inner: merging Estimators with different params (same seed/params required)")
	}
	e.mergeSide(e.f, other.f)
	e.mergeSide(e.g, other.g)
	return nil
}

// mergeSide folds one stream's level stack into the receiver's.
func (e *Estimator) mergeSide(sd, osd *side) {
	sd.win.Merge(osd.win, func(lv, olv *ipLevel) {
		for r := range lv.bins {
			for c := range lv.bins[r] {
				lv.bins[r][c] += olv.bins[r][c]
			}
		}
		lv.start = min(lv.start, olv.start)
	}, copyLevel)
	sd.t = sample.AddPos(sd.t, osd.t)
	sd.maxCount = max(sd.maxCount, osd.maxCount)
	sd.win.Sync(sd.t, func(int) *ipLevel { return e.newLevel(sd.t) })
	for _, lv := range sd.win.Each { // the summed bins can be wider than either side's
		for _, row := range lv.bins {
			for _, c := range row {
				sd.maxCount = max(sd.maxCount, stream.Abs64(c))
			}
		}
	}
}

func copyLevel(lv, dst *ipLevel) *ipLevel {
	if dst == nil || len(dst.bins) != len(lv.bins) {
		dst = &ipLevel{bins: make([][]int64, len(lv.bins))}
	}
	dst.start = lv.start
	for r := range lv.bins {
		dst.bins[r] = append(dst.bins[r][:0], lv.bins[r]...)
	}
	return dst
}

// CloneInto returns a deep copy sharing the (immutable) hash functions,
// written into dst (nil: a new one), an earlier copy nobody else holds;
// its rng stream is seeded by one draw of e's, built at its first draw.
func (e *Estimator) CloneInto(dst *Estimator) *Estimator {
	if dst == nil {
		dst = &Estimator{f: new(side), g: new(side)}
	}
	*dst = Estimator{
		params: e.params,
		prime:  e.prime,
		hb:     e.hb,
		hs:     e.hs,
		f:      cloneSide(e.f, dst.f),
		g:      cloneSide(e.g, dst.g),
		rng:    sample.Seeded(e.rng.Get().Int63()),
	}
	return dst
}

func cloneSide(sd, dst *side) *side {
	*dst = side{t: sd.t, maxCount: sd.maxCount, win: sd.win.CloneInto(dst.win, copyLevel)}
	return dst
}
