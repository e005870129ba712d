package bounded

import (
	"math"

	"repro/internal/heavy"
	"repro/internal/sampler"
	"repro/internal/sparse"
	"repro/internal/topk"
	"repro/internal/wire"
)

// walker is a wire.Filler that only reads.
type walker func(r *wire.Reader)

func (w walker) Fill(r *wire.Reader) { w(r) }

// packedColumns tallies the count columns a walk of a state passes,
// and keeps where each candidate tracker it passes starts and the
// (id, estimate) pairs it holds. A tracker's id column is not a count
// column: its bytes count as the state's headers.
type packedColumns struct {
	entries   int64
	bytes     int
	trackerAt []int
	trackers  [][]candidate
}

// walk reads a state of shape sh as its kind lays it out. Only the
// count columns are told apart; the rest is read over.
func (p *packedColumns) walk(r *wire.Reader, sh shape) {
	tracker := func() {
		p.trackerAt = append(p.trackerAt, r.Offset())
		ids := make([]uint64, r.U32())
		wire.ReadCounts(r, ids)
		pairs := make([]candidate, len(ids))
		for i := range pairs {
			pairs[i].id = ids[i]
			pairs[i].est = r.F64()
		}
		p.trackers = append(p.trackers, pairs)
	}
	levels := func(level func()) {
		for n := r.U32(); n > 0 && r.Err() == nil; n-- {
			r.U32() // the level's index
			level()
		}
	}
	switch sh.kind {
	case KindHeavyHitters:
		// The least state: the L1 scale (two words when strict; when
		// general, two words and the Cauchy counters one byte each), the
		// table one byte a counter, no candidates.
		least := hhParams(sh.cfg, sh.opts).StateLen()
		table := hhParams(sh.cfg, echo{}).StateLen() - 16 - 21 - topk.MinLen
		r.Take(16) // the scale's two words
		if sh.opts.general {
			p.column(r, least-16-21-table-topk.MinLen-wire.MinColumnLen(0))
		}
		p.csss(r, table)
		tracker()
	case KindL1Sampler:
		one := sampler.StateLen(samplerParams(sh.cfg), 1) // r, q, maxR, two tables, no candidates
		for range samplerCopies(sh.cfg, sh.opts.copies) {
			r.Take(24)
			p.csss(r, (one-24-topk.MinLen)/2-21)
			p.csss(r, (one-24-topk.MinLen)/2-21)
			tracker()
		}
	case KindSupportSampler:
		r.Take(8 + 8*16 + 4) // the rough-F0 tracker, the window's peak
		cells := ((supportParams(sh.cfg, sh.opts.k).StateLen()-8-8*16-8)/2 - 4 - 9) / 17
		levels(func() { p.sparse(r, cells) })
	case KindInnerProduct:
		for range 2 { // the f and g sides
			r.Take(16)
			levels(func() {
				r.Take(8)
				p.column(r, 5*int(math.Ceil(4/sh.cfg.Eps))) // rows · K (inner.Params)
			})
		}
	case KindL2HeavyHitters:
		ins := max(16, int(math.Ceil(4*(sh.cfg.Alpha/sh.cfg.Eps)*(sh.cfg.Alpha/sh.cfg.Eps)))) // heavy.l2Cols
		p.countSketch(r, 5*ins)
		p.countSketch(r, heavy.L2StateLen(sh.cfg.Eps, sh.cfg.Alpha)-9-5*ins-9-topk.MinLen)
		tracker()
	case KindSyncSketch:
		p.sparse(r, (sparse.StateLen(sh.opts.capacity)-9)/17)
	case KindL1Estimator:
		if !sh.opts.general { // no count column
			r.Take(r.Remaining())
			break
		}
		rows, _ := generalL1Dims(sh.cfg)
		r.Take(16) // position, peak
		levels(func() {
			r.Take(8) // start
			p.column(r, rows+generalL1RPrime)
		})
	default: // L0Estimator: no count column
		r.Take(r.Remaining())
	}
}

// column reads an n-entry count column.
func (p *packedColumns) column(r *wire.Reader, n int) {
	at := r.Offset()
	wire.ReadCounts(r, make([]uint64, n))
	p.entries += int64(n)
	p.bytes += r.Offset() - at
}

func (p *packedColumns) csss(r *wire.Reader, counters int) {
	r.Take(20) // t, p, maxCount
	p.column(r, counters)
}

func (p *packedColumns) sparse(r *wire.Reader, cells int) {
	r.Take(8) // maxCount
	p.column(r, cells)
	r.Take(16 * cells) // the key and fingerprint sums
}

func (p *packedColumns) countSketch(r *wire.Reader, counters int) {
	r.Take(8) // mass
	p.column(r, counters)
}
