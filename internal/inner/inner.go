// Package inner implements inner-product estimation between two
// alpha-property streams (the paper's Section 2.2, Theorem 2):
// <f, g> +- eps ||f||_1 ||g||_1 in O(eps^-1 log(alpha log n / eps)) bits.
//
// The pipeline per stream, following Theorem 2's proof:
//
//  1. sample updates in exponentially increasing intervals
//     I_r = [s^r, s^{r+2}] at rate s^-r, keeping the two live levels
//     (Lemma 6: a poly(alpha/eps)-size uniform sample preserves inner
//     products to additive eps ||f||_1 ||g||_1);
//  2. reduce sampled identities modulo a random prime P (Lemma 7's
//     small-space bit-by-bit reduction, hash.StreamedMod) — since at most
//     ~2s^2 distinct identities are ever sampled, a random P from a range
//     with >> s^4 primes preserves distinctness whp;
//  3. feed the reduced identities into Count-Sketch vectors A and B of
//     k = Theta(1/eps) buckets sharing the same bucket and sign hashes
//     (Lemma 8);
//  4. return p_f^-1 p_g^-1 <A, B>.
//
// The dense baseline for Figure 1 row 3 is sketch.CountSketch's
// InnerProduct over the full streams.
package inner

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/order"
	"repro/internal/sample"
	"repro/internal/stream"
)

// Params configures the estimator.
type Params struct {
	N   uint64
	Eps float64
	// Base is the interval base s = poly(alpha/eps); the level answering
	// a query has sampled between base and base^2 updates of its stream.
	Base int64
	// K overrides the bucket count k = Theta(1/eps) (default 4/eps).
	K int
	// Rows > 1 runs parallel independent repetitions and returns their
	// median (the paper amplifies its 11/13 single-shot probability the
	// same way).
	Rows int
}

func (p *Params) fill() {
	if p.Eps <= 0 || p.Eps >= 1 {
		panic(fmt.Sprintf("inner: eps must be in (0,1), got %v", p.Eps))
	}
	if p.Base < 4 {
		panic("inner: base must be >= 4")
	}
	if p.K <= 0 {
		// 2^40 buckets is beyond any memory; the clamp keeps level
		// lengths in range for any eps.
		p.K = int(min(math.Ceil(4/p.Eps), 1<<40))
	}
	if p.Rows <= 0 {
		p.Rows = 1
	}
}

// Estimator sketches two streams f and g.
type Estimator struct {
	params Params
	prime  uint64
	hb     []*hash.KWise // bucket hashes over [P], 4-wise, one per row
	hs     []*hash.KWise // sign hashes over [P], 4-wise, one per row
	f, g   *side
	rng    *sample.Rand
}

// side is the per-stream interval-sampled Count-Sketch stack.
type side struct {
	t        int64
	win      *sample.Window[ipLevel]
	maxCount int64 // the bins' peak (the peak rule, doc.go)
}

type ipLevel struct {
	start int64
	bins  []int64 // signed sampled counts, row r's bucket b at r*K+b
}

// New builds the estimator.
func New(rng *rand.Rand, params Params) *Estimator {
	params.fill()
	// D = 100 s^2 gives >> s^4/log primes in [D, D^2]; the at most
	// ~2 s^2 sampled identities collide mod a random such prime with
	// o(1) probability (Theorem 2's argument with laptop-scaled D).
	// D is clamped to 2^31 so D^2 stays within uint64; identities above
	// that already fit comfortably in the hash seeds' budget.
	d := uint64(100) * uint64(params.Base) * uint64(params.Base)
	if d < 1<<20 {
		d = 1 << 20
	}
	if d > 1<<31 {
		d = 1 << 31
	}
	prime, err := nt.RandomPrime(rng, d, d*d)
	if err != nil {
		panic("inner: no prime: " + err.Error())
	}
	e := &Estimator{
		params: params,
		prime:  prime,
		f:      &side{win: sample.NewWindow[ipLevel](params.Base)},
		g:      &side{win: sample.NewWindow[ipLevel](params.Base)},
		rng:    sample.Wrap(rng),
	}
	e.hb = make([]*hash.KWise, params.Rows)
	e.hs = make([]*hash.KWise, params.Rows)
	for r := range e.hb {
		e.hb[r] = hash.NewFourWise(rng)
		e.hs[r] = hash.NewFourWise(rng)
	}
	return e
}

// UpdateF feeds an update to the first stream.
func (e *Estimator) UpdateF(i uint64, delta int64) { e.update(e.f, i, delta) }

// Update is UpdateF: a single-stream caller (the public Sketch ingest
// path) feeds the first stream.
func (e *Estimator) Update(i uint64, delta int64) { e.update(e.f, i, delta) }

// UpdateColumns is UpdateColumnsF, for the same callers.
func (e *Estimator) UpdateColumns(b *core.Batch) { e.updateColumns(e.f, b) }

// UpdateG feeds an update to the second stream.
func (e *Estimator) UpdateG(i uint64, delta int64) { e.update(e.g, i, delta) }

// UpdateColumnsF consumes a pre-planned columnar batch for the first
// stream. Sampled levels draw rng per update, so application stays
// per-item in column order.
func (e *Estimator) UpdateColumnsF(b *core.Batch) { e.updateColumns(e.f, b) }

// UpdateColumnsG consumes a pre-planned columnar batch for the second
// stream.
func (e *Estimator) UpdateColumnsG(b *core.Batch) { e.updateColumns(e.g, b) }

func (e *Estimator) updateColumns(sd *side, b *core.Batch) {
	for j, i := range b.Idx {
		e.update(sd, i, b.Delta[j])
	}
}

func (e *Estimator) update(sd *side, i uint64, delta int64) {
	mag := stream.Abs64(delta)
	// Reduce the identity once per update (Lemma 7 small-space mod).
	reduced := hash.StreamedMod(i, e.prime)
	// The |delta| unit updates are applied in runs over which the live
	// set stands still: one draw per sampled level per run, in ascending
	// level order, so the cost is O(log |delta|) window moves.
	fresh := func(int) *ipLevel { return e.newLevel(sd.t) }
	for mag > 0 {
		run := sd.win.Step(&sd.t, mag, fresh)
		for j, lv := range sd.win.Each {
			kept := sample.Thin(e.rng.Get(), run, sample.Pow(e.params.Base, j))
			if kept == 0 {
				continue
			}
			if delta < 0 {
				kept = -kept
			}
			for r := 0; r < e.params.Rows; r++ {
				b := r*e.params.K + int(e.hb[r].Range(reduced, uint64(e.params.K)))
				s := int64(e.hs[r].Sign(reduced))
				lv.bins[b] += s * kept
				if a := stream.Abs64(lv.bins[b]); a > sd.maxCount {
					sd.maxCount = a
				}
			}
		}
		mag -= run
	}
}

// newLevel opens a level at position start.
func (e *Estimator) newLevel(start int64) *ipLevel {
	return &ipLevel{start: start, bins: make([]int64, e.params.Rows*e.params.K)}
}

// Estimate returns p_f^-1 p_g^-1 <A, B> (median over rows).
func (e *Estimator) Estimate() float64 {
	jf, lf := e.f.win.Oldest()
	jg, lg := e.g.win.Oldest()
	if lf == nil || lg == nil {
		return 0
	}
	scaleF := float64(sample.Pow(e.params.Base, jf))
	scaleG := float64(sample.Pow(e.params.Base, jg))
	ests := make([]float64, e.params.Rows)
	k := e.params.K
	for r := range ests {
		var dot int64
		for c, g := range lg.bins[r*k : (r+1)*k] {
			dot += lf.bins[r*k+c] * g
		}
		ests[r] = scaleF * scaleG * float64(dot)
	}
	return order.MedianFloat64(ests)
}

// SpaceBits charges the live bins at sampled-count width, seeds at
// log(P) scale, and the position counters — the
// O(eps^-1 log(alpha log n / eps)) layout of Theorem 2.
func (e *Estimator) SpaceBits() int64 {
	width := int64(nt.BitsFor(uint64(max(e.f.maxCount, e.g.maxCount)))) + 1
	bins := int64(e.f.win.Len()+e.g.win.Len()) * int64(e.params.Rows) * int64(e.params.K)
	var seeds int64
	for r := range e.hb {
		seeds += e.hb[r].SpaceBits() + e.hs[r].SpaceBits()
	}
	positions := int64(nt.BitsFor(uint64(e.f.t)) + nt.BitsFor(uint64(e.g.t)))
	return bins*width + seeds + positions + int64(nt.BitsFor(e.prime))
}
