package bounded

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/heavy"
	"repro/internal/sampler"
	"repro/internal/sparse"
	"repro/internal/topk"
	"repro/internal/wire"
)

// TestWireTracksSpaceBits: a state travels in about the bits SpaceBits
// charges it. For every kind, after a random stream, 8·len(state)
// exceeds SpaceBits() by at most 7 bits per packed counter plus what the
// state carries outside its count columns (fixed headers, clocks,
// candidate ids and estimates, floats, field elements) — so the count
// columns alone take at most SpaceBits() plus 7 bits a counter, the
// rounding of a counter's bits up to whole bytes. The walk of each
// kind's layout below finds the columns, and must consume the state
// exactly.
func TestWireTracksSpaceBits(t *testing.T) {
	cfg := Config{N: 1 << 16, Eps: 0.05, Alpha: 4, Seed: 3}
	s := gen.BoundedDeletion(gen.Config{N: cfg.N, Items: 10000, Alpha: cfg.Alpha, Zipf: 1.2, Seed: 5})
	for _, c := range []struct {
		name  string
		build func() (Sketch, error)
	}{
		{"HeavyHitters", func() (Sketch, error) { return NewHeavyHitters(cfg) }},
		{"HeavyHitters/general", func() (Sketch, error) { return NewHeavyHitters(cfg, WithStrict(false)) }},
		{"L1Estimator", func() (Sketch, error) { return NewL1Estimator(cfg) }},
		{"L1Estimator/general", func() (Sketch, error) { return NewL1Estimator(cfg, WithStrict(false)) }},
		{"L0Estimator", func() (Sketch, error) { return NewL0Estimator(cfg) }},
		{"L1Sampler", func() (Sketch, error) { return NewL1Sampler(cfg) }},
		{"SupportSampler", func() (Sketch, error) { return NewSupportSampler(cfg) }},
		{"InnerProduct", func() (Sketch, error) { return NewInnerProduct(cfg) }},
		{"L2HeavyHitters", func() (Sketch, error) { return NewL2HeavyHitters(cfg) }},
		{"SyncSketch", func() (Sketch, error) { return NewSyncSketch(cfg) }},
	} {
		sk := must(c.build())
		sk.UpdateBatch(s.Updates)
		blob := must(sk.MarshalBinary())
		state := blob[stateAt(t, blob):]
		var p packedColumns
		if err := wire.Fill(state, walker(func(r *wire.Reader) { p.walk(r, sk.(structure).shapeOf()) })); err != nil {
			t.Fatalf("%s: walking the state: %v", c.name, err)
		}
		bits, charged := int64(8*len(state)), sk.SpaceBits()
		if headers := int64(8 * (len(state) - p.bytes)); bits-charged > 7*p.entries+headers {
			t.Errorf("%s: %d state bits, %d charged: %d packed counters in %d bytes, %d header bits",
				c.name, bits, charged, p.entries, p.bytes, headers)
		}
		t.Logf("%s: %d state bits against %d charged, %d counters packed in %d bytes", c.name, bits, charged, p.entries, p.bytes)
	}
}

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
		n := int(r.U32())
		ids, _ := r.Column(n)
		pairs := make([]candidate, n)
		for i := range pairs {
			pairs[i].id = ids.Value(i)
		}
		for i := range pairs {
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
		// The least state: the L1 scale (two words when strict), the
		// table one byte a counter, no candidates.
		least := hhParams(sh.cfg, sh.opts).StateLen()
		table := hhParams(sh.cfg, echo{}).StateLen() - 16 - 21 - topk.MinLen
		r.Take(least - 21 - table - topk.MinLen)
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
	default: // L1Estimator, L0Estimator: no count column
		r.Take(r.Remaining())
	}
}

// column reads an n-entry count column.
func (p *packedColumns) column(r *wire.Reader, n int) {
	at := r.Offset()
	r.Column(n)
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
