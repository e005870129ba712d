package main

import (
	"math"

	"repro/engine"
)

// answers is the quiesced end-of-run check of an engine or a fleet
// against the exact reference.
type answers struct {
	recall, precision float64
	errRatioMean      float64 // over the probe keys, of |est - f_i| / (eps ||f||_1)
	errRatioP99       float64
	errRatioMax       float64
	l1RelErr          float64
	l0RelErr          float64
}

// emit fills the ledger's accuracy rows.
func (a answers) emit(pl map[string]float64) {
	pl["structures.l1.rel_err"] = a.l1RelErr
	pl["structures.l0.rel_err"] = a.l0RelErr
	pl["structures.hh.point_err_ratio.p99"] = a.errRatioP99
	pl["structures.hh.point_err_ratio.max"] = a.errRatioMax
}

// checkAnswers scores heavy hitters, point estimates and (when the
// workload has them) L1, L0 and support answers against ref, counting
// every checked answer as an attempted operation and every wrong one
// as failed.
func checkAnswers(sp *spec, ref *reference, m *meter, q querier, sets [][]uint64) (answers, error) {
	var a answers
	eps := sp.cfg.Eps
	hh, err := q.HeavyHitters()
	m.op(err)
	if err != nil {
		return a, err
	}
	truth := ref.heavy(eps)
	got := map[uint64]bool{}
	good := 0
	for _, k := range hh {
		got[k] = true
		if float64(ref.f[k]) >= eps/2*float64(ref.l1) {
			good++
		}
	}
	found := 0
	for _, k := range truth {
		if got[k] {
			found++
		}
	}
	if len(truth) == 0 || len(hh) == 0 {
		return a, invalidf("%s: the check found %d true and %d reported heavy hitters; the workload must have some", sp.name, len(truth), len(hh))
	}
	a.recall = float64(found) / float64(len(truth))
	a.precision = float64(good) / float64(len(hh))

	scale := eps * float64(ref.l1)
	var ratios []float64
	for _, set := range sets {
		est, err := q.Estimate(set)
		m.op(err)
		if err != nil {
			return a, err
		}
		for j, k := range set {
			r := math.Abs(est[j]-float64(ref.f[k])) / scale
			a.errRatioMax = math.Max(a.errRatioMax, r)
			ratios = append(ratios, r)
			m.attempted++
			if r > 1 {
				m.failed++
			}
		}
	}

	for _, r := range ratios {
		a.errRatioMean += r / float64(len(ratios))
	}
	a.errRatioP99 = percentile(sorted(ratios), 0.99)

	if sp.structures&engine.L1Estimator != 0 {
		l1, err := q.L1()
		m.op(err)
		if err != nil {
			return a, err
		}
		a.l1RelErr = math.Abs(l1-float64(ref.l1)) / float64(ref.l1)
	}
	if sp.structures&engine.L0Estimator != 0 {
		l0, err := q.L0()
		m.op(err)
		if err != nil {
			return a, err
		}
		a.l0RelErr = math.Abs(l0-float64(ref.l0)) / float64(ref.l0)
	}
	if sp.structures&engine.SupportSampler != 0 {
		sup, err := q.Support()
		m.op(err)
		if err != nil {
			return a, err
		}
		for _, k := range sup {
			m.attempted++
			if ref.f[k] == 0 {
				m.failed++
			}
		}
	}
	return a, nil
}

// querier is the read surface the answer check needs; the engine and
// the fleet's client both provide it.
type querier interface {
	HeavyHitters() ([]uint64, error)
	Estimate(keys []uint64) ([]float64, error)
	L1() (float64, error)
	L0() (float64, error)
	Support() ([]uint64, error)
}

type engineQuerier struct{ e *engine.Engine }

func (q engineQuerier) HeavyHitters() ([]uint64, error)        { return q.e.HeavyHitters() }
func (q engineQuerier) Estimate(k []uint64) ([]float64, error) { return q.e.EstimateBatch(k) }
func (q engineQuerier) L1() (float64, error)                   { return q.e.L1() }
func (q engineQuerier) L0() (float64, error)                   { return q.e.L0() }
func (q engineQuerier) Support() ([]uint64, error)             { return q.e.Support() }
