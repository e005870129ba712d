// Package csss implements CSSampSim (the paper's Figure 2), the
// Count-Sketch sampling simulator at the core of the alpha-property
// heavy hitters and L1 sampling algorithms, together with the tail-error
// estimator of Lemma 5.
//
// CSSampSim simulates running each row of a Count-Sketch on an
// independent uniform sample of the stream. Because every row is an
// honest Count-Sketch row over a valid sample, the median-of-rows query
// keeps the Count-Sketch guarantee plus an additive eps*||f||_1 sampling
// error (Theorem 1):
//
//	|y*_i - f_i| <= 2 (Err^k_2(f)/sqrt(k) + eps ||f||_1)
//
// while counters hold only O(S) = poly(alpha log(n)/eps) samples, so each
// needs O(log(alpha log(n)/eps)) bits instead of O(log n) — the source of
// every log(n) -> log(alpha) improvement in the paper's Figure 1.
//
// Two presentation notes relative to the paper's Figure 2:
//
//  1. The halving schedule is written there as "t = 2^r log(S)+1", but
//     the space analysis in Theorem 1 ("two counters which hold O(S)
//     samples in expectation") and the sampling-rate claim
//     2^-p >= S/(2m) both require halving when t doubles past S. We
//     implement t = S*2^r + 1, which yields exactly those invariants.
//  2. Weighted streams (the L1 sampler feeds z_i = f_i/t_i) are handled
//     in fixed point: an update of weight w contributes round(w * 2^fb)
//     integer sub-units, so the binomial counter halving Bin(a, 1/2)
//     remains well defined. Thinning sub-units independently is unbiased
//     and no less concentrated than thinning whole updates.
//
// Updates arrive two ways. Update/UpdateWeighted is the per-item path:
// it defines the sampling — which rng draws an update makes, in which
// order — and is the only path weighted updates take. UpdateColumns is
// the batch path: hash the batch's distinct keys once, then thin →
// accumulate or compact → apply over each run of updates between
// halving boundaries, making the per-item path's draws in the per-item
// path's order, so the two are interchangeable bit for bit in every
// regime. A run whose expected survivors reach twice the batch's
// distinct keys accumulates per key (16-bit row lanes, swept before
// 2^16 - 1 more unit updates could wrap one) and sweeps the table once
// per key; any other compacts its survivors and sweeps once per
// survivor (coalesces). A key costs one hash evaluation per batch
// however often the batch repeats it, and the candidate refresh that
// follows reads the same columns.
//
// A Sketch is single-goroutine for updates AND queries: the update
// path and Query share per-sketch scratch (the row-hash memo) — the
// source of the zero-allocation steady state. Shard across sketches
// for parallelism.
package csss

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/order"
	"repro/internal/sample"
)

// Params configures a CSSampSim sketch.
type Params struct {
	// Rows is d, the number of independent rows (O(log n) for high
	// probability guarantees).
	Rows int
	// K is the sensitivity parameter; the table has 6K columns as in
	// Figure 2 and the guarantee is in terms of Err^K_2.
	K int
	// S is the per-row target sample size: the sampling rate is kept in
	// [S/(2t), S/t] by the halving schedule. Figure 2 sets
	// S = Theta((alpha^2/eps^2) T^2 log n); RecommendedS computes a
	// laptop-scaled version.
	S int64
	// FixedPointBits is the sub-unit resolution for weighted updates
	// (0 for plain integer streams).
	FixedPointBits uint
}

// RecommendedS returns a practically scaled sample size preserving the
// functional form S = (alpha/eps)^2 * log2(n): quadratic in alpha/eps,
// logarithmic in the universe. The paper's constant-laden
// Theta(alpha^2 eps^-2 T^2 log n) with T = 4/eps^2 + log n is astronomical
// at laptop scale.
func RecommendedS(alpha, eps float64, n uint64) int64 {
	if eps <= 0 || eps >= 1 {
		panic("csss: eps must be in (0,1)")
	}
	if alpha < 1 {
		alpha = 1
	}
	v := (alpha / eps) * (alpha / eps) * float64(nt.Log2Ceil(n)+1)
	if v < 1024 {
		v = 1024
	}
	if v > 1<<40 {
		v = 1 << 40
	}
	return int64(v)
}

// cell is one table entry: cell[0] holds the positive and cell[1] the
// negative sampled mass (the paper's a+ and a-). The array layout lets
// the write path select the side by index instead of by branch.
type cell [2]int64

// Sketch is the CSSampSim data structure.
type Sketch struct {
	params  Params
	buckets *hash.Buckets
	rows    int
	cols    uint64
	table   []cell // flat rows*cols layout: row r, column c at r*cols+c
	rng     *sample.Rand

	t        int64   // position in the (unit-expanded) stream
	p        int     // current sampling exponent: rate 2^-p
	scale    float64 // 2^p, cached so estimates avoid math.Ldexp per row
	estScale float64 // 2^p / 2^fb: the per-row estimate rescaling factor
	nextHalf int64   // next halving boundary S*2^r + 1
	maxCount int64   // largest counter value ever held (space accounting)
	fpUnit   int64   // 2^FixedPointBits
	halved   int64   // halvings since built, decoded or copied (Halvings)

	// Per-update scratch: row bucket/sign pairs are evaluated once per
	// update (one 4-wise evaluation per row) and reused across the
	// binomial-thinning chunks, and the query median selects in place.
	// lastKey memoizes which key the scratch belongs to, so the
	// update-then-query pattern of the heavy-hitters and sampler loops
	// (Offer the just-updated index's fresh estimate) skips re-hashing —
	// the hash functions are fixed at construction, so the memo never
	// goes stale.
	rowCols  []uint64
	rowSigns []int64
	rowIdx   []int   // flat table index of each row's cell for lastKey
	rowSide  []int   // 0 = positive side, 1 = negative, for (lastKey, lastSign)
	cnts     []int64 // per-row sampled counts of the current chunk
	lastKey  uint64
	lastSign int64
	haveLast bool
	qest     []float64
	qBatch   []float64 // scratch for QueryColumns' row-major gather, (a+ - a-) then estimates
	resid    []float64
}

// New allocates a CSSampSim sketch.
func New(rng *rand.Rand, params Params) *Sketch {
	if params.Rows < 1 || params.K < 1 || params.S < 1 {
		panic(fmt.Sprintf("csss: invalid params %+v", params))
	}
	cols := uint64(6 * params.K)
	s := &Sketch{
		params:   params,
		buckets:  hash.NewBuckets(rng, params.Rows, cols),
		rows:     params.Rows,
		cols:     cols,
		rng:      sample.Wrap(rng),
		scale:    1,
		estScale: 1 / float64(int64(1)<<params.FixedPointBits),
		nextHalf: 2*params.S + 1,
		fpUnit:   1 << params.FixedPointBits,
	}
	s.table = make([]cell, uint64(s.rows)*cols)
	sampleExponent.Set(0)
	return s.withScratch()
}

// withScratch gives s per-row scratch of its own.
func (s *Sketch) withScratch() *Sketch {
	s.rowCols, s.rowSigns, s.rowIdx = make([]uint64, s.rows), make([]int64, s.rows), make([]int, s.rows)
	s.rowSide, s.cnts, s.qest = make([]int, s.rows), make([]int64, s.rows), make([]float64, s.rows)
	return s
}

// Update feeds an integer update (i, delta); |delta| > 1 is treated as
// |delta| consecutive unit updates, realized in one shot by binomial
// thinning (Section 1.3 / Remark 2 of the paper).
func (s *Sketch) Update(i uint64, delta int64) {
	s.UpdateWeighted(i, delta, 1.0)
}

// UpdateColumns applies a pre-planned columnar batch: hash the batch's
// distinct keys once (core.Distinct; b must be Plannable), then
// apply the updates as a sequence of runs through their keys' ordinals.
// A run is the longest prefix of what is left whose unit mass keeps t
// strictly below the next halving boundary, so the whole run is sampled
// at one rate 2^-p: thin → accumulate or compact → apply (applyRun).
// Only the update that lands on (or crosses) a halving boundary takes
// the scalar chunk loop, which performs the halving.
//
// It returns the distinct keys' bucket and sign columns (row-major,
// rows x len(keys), in b's column scratch and valid until that scratch
// is next sized) so the candidate refresh that follows an ingest can
// estimate from them (EstimateHashed) instead of hashing the same keys
// again.
//
// Contract: the thin stage makes exactly the rng draws addSampled
// makes, in the same order, and nothing else in a run draws — so the
// result (every table cell, t, p, and the rng's next output) is
// bit-identical to feeding the same updates through Update in every
// regime. The scalar path is the oracle the differential tests hold
// this to.
func (s *Sketch) UpdateColumns(b *core.Batch) (cols []uint32, signs []int8) {
	idx, deltas := b.Idx, b.Delta
	keys, slot := core.Distinct(b)
	n, d := len(idx), len(keys)
	if n == 0 {
		return nil, nil
	}
	batchKeys.Add(int64(n))
	keysHashed.Add(int64(d))
	// One sizing of the batch's uint32 scratch: the hashed columns in
	// front, behind them the survivor ordinals of a thinned run (see
	// applyRun for the n+rows).
	u32 := b.Cols32(s.rows*d + n + s.rows)
	h := hashed{d: d, cols: u32[:s.rows*d], signs: b.Signs8(s.rows * d)}
	s.buckets.BucketSignsBatch(keys, h.cols, h.signs)
	// A sketch deeper than a survivor's row mask batches nothing (no
	// sketch in this library is built that deep; a decoded one may be).
	batchable := s.rows <= maxMaskRows
	j := 0
	for j < n {
		// Overflow discipline: room - mass >= 0 by loop invariant, so
		// `m > room-mass` detects a boundary crossing without mass+m
		// ever wrapping; m < 0 after negation means delta == MinInt64,
		// which the scalar path treats as a no-op (decompose leaves a
		// negative magnitude) — route it there rather than corrupt t.
		// One update wider than a survivor's count field goes there too.
		room := s.nextHalf - 1 - s.t
		var mass int64
		k := j
		for batchable && k < n {
			m := deltas[k]
			if m < 0 {
				m = -m
			}
			if m < 0 || m > room-mass || m > maxCount {
				break
			}
			mass += m
			k++
		}
		if k > j {
			survivors := s.applyRun(b, h, slot[j:k], deltas[j:k], u32[s.rows*d:])
			s.t += mass
			if s.p == 0 {
				unitsRate1.Add(mass)
			} else {
				unitsThinned.Add(mass)
			}
			survivorsApplied.Add(survivors)
			j = k
		}
		if j < n {
			// This update crosses (or lands on) the boundary, or cannot be
			// batched: the scalar chunk loop handles the halving and any
			// post-halving sampling.
			s.UpdateWeighted(idx[j], deltas[j], 1.0)
			if m := deltas[j]; m != math.MinInt64 { // which carries no units
				unitsScalar.Add(max(m, -m))
			}
			j++
		}
	}
	return h.cols, h.signs
}

// hashed is a key column seen through the sketch's hash functions:
// key t's bucket in row r is cols[r*d+t], its sign signs[r*d+t].
type hashed struct {
	d     int
	cols  []uint32
	signs []int8
}

// row returns row r's bucket and sign columns.
func (h hashed) row(r int) ([]uint32, []int8) {
	return h.cols[r*h.d : r*h.d+h.d], h.signs[r*h.d : r*h.d+h.d]
}

// A survivor is a key's ordinal plus one packed word: how many of the
// update's units were kept (low 32 bits), which rows kept that many
// (one bit per row from bit 32 up), and the delta's sign (bit 63).
const (
	maxCount    = 1<<32 - 1 // widest count, hence widest single update, a survivor carries
	rowBit0     = 1 << 32   // row r's mask bit is rowBit0 << r
	maxMaskRows = 31        // deepest sketch the row mask describes
)

// applyRun ingests a run of updates that all sample at the current rate
// 2^-p, none reaching the halving boundary (the caller advances t).
// slot names each update's key by its ordinal in the hashed column h;
// ords is scratch for len(slot)+rows survivor ordinals.
//
// Thin draws, item by item and row by row, the sampling decisions
// addSampled would draw for the same update: nothing at p = 0 (every
// row keeps every unit), one Uint64 split into p-bit fields for a unit
// update while p*rows <= 64, one Dyadic or Binomial per row otherwise.
// What they kept reaches the table one of two ways (coalesces says
// which). Accumulate: a unit update's row hits go to its key's lane
// counts — a rate-1 run's units to its key's mass, applyCoalesced — and
// one sweep adds two sums per DISTINCT key per row. Compact: the key's
// ordinal and its packed count, row mask and sign go to the batch's
// column scratch, nothing for an update no row kept, and applySurvivors
// sweeps every row per SURVIVOR; multi-unit updates do so in either
// kind of run. It returns the number of updates some row kept.
func (s *Sketch) applyRun(b *core.Batch, h hashed, slot []uint32, deltas []int64, ords []uint32) int64 {
	n := len(slot)
	coalesce := s.coalesces(n, h.d)
	if s.p == 0 {
		if coalesce {
			s.applyCoalesced(b, h, slot, deltas)
			return int64(n)
		}
		// A run shorter than the key column (a batch cut up by updates
		// the scalar loop took) is cheaper update by update than key by
		// key. Everything survives in every row, so the ordinals need no
		// compaction; a zero delta contributes a zero add, which is
		// cheaper than a branch.
		kept := b.Col64(n)
		all := uint64(1)<<uint(s.rows) - 1
		for t, d := range deltas {
			units := (d ^ (d >> 63)) - (d >> 63) // branchless |d|
			kept[t] = uint64(d)>>63<<63 | all*rowBit0 | uint64(units)
		}
		s.applySurvivors(h, slot, kept)
		return int64(n)
	}
	// An update leaves at most `rows` survivors (one per distinct
	// per-row count), so with n+rows slots a run of unit updates never
	// fills the scratch and applies in one sweep; only a run whose big
	// deltas fan out flushes early. Behind them, a coalescing run's lane
	// counts: 2d words for every laneRows rows.
	slots, size := n+s.rows, n+s.rows
	if coalesce {
		size += 2 * h.d * ((s.rows + laneRows - 1) / laneRows)
	}
	ords, kept := ords[:slots], b.Col64(size)
	kept, lanes := kept[:slots], kept[slots:]
	clear(lanes)
	packed, rng := s.p*s.rows <= 64, s.rng.Get()
	rows, width := uint(s.rows), uint(s.p)
	var low, top uint64
	if packed {
		low, top = fieldMasks(width, rows)
	}
	var applied int64
	m, laned := 0, 0 // survivors compacted; unit updates in the lanes
	for t, d := range deltas {
		if d == 0 {
			continue
		}
		if m+s.rows > slots {
			s.applySurvivors(h, ords[:m], kept[:m])
			applied += int64(m)
			m = 0
		}
		neg := uint64(d) >> 63 << 63
		units := (d ^ (d >> 63)) - (d >> 63)
		if units != 1 {
			m = s.thinCounts(ords, kept, m, slot[t], units, neg)
			continue
		}
		// Row r keeps the unit iff its coin lands: its p-bit field of
		// one shared word is zero, or past 64 bits its own Dyadic draw.
		// The field test and both ways on are branch free — at mid
		// rates neither outcome is predictable.
		var hits uint64
		if packed {
			hits = zeroFields(rng.Uint64(), low, top, width, rows)
		} else {
			for r := 0; r < s.rows; r++ {
				if sample.Dyadic(rng, s.p) {
					hits |= 1 << uint(r)
				}
			}
		}
		hit := (hits | -hits) >> 63 // 1 iff any row hit
		if !coalesce {
			ords[m], kept[m] = slot[t], neg|hits*rowBit0|1
			m += int(hit) // keep the slot iff any row hit
			continue
		}
		// One multiply puts laneRows row bits each in its own lane.
		applied += int64(hit)
		for a := 2*uint(slot[t]) + uint(neg>>63); a < uint(len(lanes)); a += 2 * uint(h.d) {
			lanes[a] += (hits & (1<<laneRows - 1)) * laneSpread & laneOnes
			hits >>= laneRows
		}
		if laned++; laned == laneMax { // one more could wrap a lane
			s.sweepLanes(h, lanes)
			clear(lanes)
			laned = 0
		}
	}
	s.applySurvivors(h, ords[:m], kept[:m])
	if laned > 0 {
		s.sweepLanes(h, lanes)
	}
	return applied + int64(m)
}

// A coalescing thinned run counts what each row kept of key t's unit
// updates in 16-bit lanes, laneRows rows to a word: row r's two counts
// are lane r%laneRows of lanes[2d*(r/laneRows)+2t] (positive deltas) and
// of the next word (negative). A unit update adds at most one to a
// lane, so a sweep every laneMax of them keeps every lane from wrapping.
const (
	laneRows   = 4
	laneMax    = 1<<16 - 1
	laneOnes   = 0x0001000100010001        // bit 0 of every lane
	laneSpread = 1 | 1<<15 | 1<<30 | 1<<45 // times a nibble: its bit r at bit 16r
)

// coalesceBar is the expected number of surviving updates per distinct
// key from which a thinned run coalesces. With the rule forced either
// way (BenchmarkUpdateColumns' table; zipf 1.05 and 1.2; 1024 and 4096
// updates; p = 1..4) lanes cost, in survivor sweeps, 1.24 | 1.13 | 1.08
// | 1.0-1.05 | 0.98 | 0.95 | 0.88 | 0.76 at 0.6 | 1.0 | 1.2 | 1.7 | 1.9 |
// 2.4 | 3.0 | 3.4 expected survivors per key.
const coalesceBar = 2

// coalesces is the one rule for which apply a run of n updates takes,
// from what the run shows before its first draw: n, the batch's d
// distinct keys, p and rows. The key sweep costs 2*rows adds per key
// however few updates survive, the survivor sweep rows adds per update
// some row kept: a run coalesces when the EXPECTED number of those,
// n(1-(1-2^-p)^rows), reaches coalesceBar*d. At p = 0 all n survive and
// the bar is one, a run no shorter than the key column (else alternating
// unit and huge deltas would be quadratic). It is pacing, not state:
// either apply leaves the same table. Measured and NOT shipped: lanes
// for every thinned run (uniform keys, d = n = 4096: p = 1 64 -> 82,
// p = 4 60 -> 94, p = 8 53 -> 93 ns/update); sweeping only the keys a
// run touched (mends p = 8, costs all-distinct p = 1 53 -> 76); no
// survivor sweep at all, multi-unit updates and short runs adding
// straight to their cells (inherits the first).
func (s *Sketch) coalesces(n, d int) bool {
	if s.p == 0 {
		return n >= d
	}
	kept := 1 - math.Pow(1-math.Ldexp(1, -s.p), float64(s.rows))
	return float64(n)*kept >= coalesceBar*float64(d)
}

// applyCoalesced is a rate-1 run's apply, key by key: every row keeps
// every unit, so the run's mass is first summed per key and side of
// zero — mass[2t] from the positive deltas of key t, mass[2t+1] from
// the negative, in fixed-point sub-units — and each row then adds two
// sums per DISTINCT key instead of one product per update. int64 adds commute and wrap associatively,
// so every cell ends bit-identical to the per-update sweep. The sums
// are 64 bits wide: a key's mass over a run is not bounded by a
// survivor's count field.
func (s *Sketch) applyCoalesced(b *core.Batch, h hashed, slot []uint32, deltas []int64) {
	keySweeps.Inc()
	_, _, wfp := s.decompose(1, 1.0) // weight 1.0 quantized exactly as the scalar path does
	mass := b.Col64(2 * h.d)
	clear(mass)
	for t, d := range deltas {
		units := (d ^ (d >> 63)) - (d >> 63) // branchless |d|
		mass[2*uint(slot[t])+uint(uint64(d)>>63)] += uint64(units) * uint64(wfp)
	}
	width := int(s.cols)
	for r := 0; r < s.rows; r++ {
		row := s.table[r*width : r*width+width]
		rc, rs := h.row(r)
		for t, c := range rc {
			// Positive-delta mass lands on the side g's sign bit names
			// (side 0 iff g > 0), negative-delta mass on the other.
			g := uint8(rs[t]) >> 7
			cl := &row[c]
			cl[g] += int64(mass[2*t])
			cl[g^1] += int64(mass[2*t+1])
		}
	}
}

// sweepLanes is applyCoalesced's sweep over a thinned run's lane
// counts: each row adds two counts times wfp per distinct key.
func (s *Sketch) sweepLanes(h hashed, lanes []uint64) {
	keySweeps.Inc()
	_, _, wfp := s.decompose(1, 1.0) // weight 1.0 quantized exactly as the scalar path does
	width := int(s.cols)
	for r := 0; r < s.rows; r++ {
		rc, rs := h.row(r)
		sweepLaneRow(s.table[r*width:r*width+width], rc, rs, lanes[2*h.d*(r/laneRows):], uint(r%laneRows*16), uint64(wfp))
	}
}

// sweepLaneRow is one row of sweepLanes, split out so the loop keeps
// its operands in registers; sides as in applyCoalesced.
//
//go:noinline
func sweepLaneRow(row []cell, rc []uint32, rs []int8, lanes []uint64, shift uint, wfp uint64) {
	rs, lanes, shift = rs[:len(rc)], lanes[:2*len(rc)], shift&63
	for t, c := range rc {
		g := uint8(rs[t]) >> 7
		cl := &row[c]
		cl[g] += int64((lanes[2*t] >> shift & laneMax) * wfp)
		cl[g^1] += int64((lanes[2*t+1] >> shift & laneMax) * wfp)
	}
}

// fieldMasks describes a word cut into `rows` fields of `width` bits
// from bit 0 up (width*rows <= 64): low has every field's bits below its
// top bit, top has every field's top bit.
func fieldMasks(width, rows uint) (low, top uint64) {
	for r := uint(0); r < rows; r++ {
		low |= (1<<(width-1) - 1) << (r * width)
		top |= 1 << (r*width + width - 1)
	}
	return low, top
}

// zeroFields returns bit r set iff field r of word is zero — the
// packed-word coin of addSampled for all rows at once, without a
// branch. Adding low carries into a field's top bit iff its lower bits
// are nonzero, so after the OR with word the top bit says "field != 0";
// inverting and masking leaves one flag per field, `width` apart. The
// loop squeezes them into adjacent bits: each shift by width-1 lands
// the next field's flag on its own bit (at width 1 it already is).
func zeroFields(word, low, top uint64, width, rows uint) uint64 {
	z := (^(((word & low) + low) | word) & top) >> (width - 1)
	if width == 1 {
		return z
	}
	var hits uint64
	for bit := uint64(1); bit < 1<<rows; bit <<= 1 {
		hits |= z & bit
		z >>= width - 1
	}
	return hits
}

// thinCounts thins a multi-unit update: each row draws its sampled
// count Bin(units, 2^-p), and the update leaves one survivor per
// distinct nonzero count, masking the rows that drew it, from slot m
// on. It returns the next free slot.
func (s *Sketch) thinCounts(ords []uint32, kept []uint64, m int, ord uint32, units int64, neg uint64) int {
	rate, rng := math.Ldexp(1, -s.p), s.rng.Get()
	for r := range s.cnts {
		s.cnts[r] = sample.Binomial(rng, units, rate)
	}
	var done uint64
	for r, cnt := range s.cnts {
		if cnt == 0 || done>>uint(r)&1 != 0 {
			continue
		}
		same := uint64(1) << uint(r)
		for q := r + 1; q < len(s.cnts); q++ {
			if s.cnts[q] == cnt {
				same |= 1 << uint(q)
			}
		}
		done |= same
		ords[m], kept[m] = ord, neg|same*rowBit0|uint64(cnt)
		m++
	}
	return m
}

// applySurvivors adds every survivor's kept units, at weight 1.0, to
// the cells of the rows its mask names, sweeping the table row-major —
// the same writes the scalar path makes, reordered (integer adds
// commute).
func (s *Sketch) applySurvivors(h hashed, ords []uint32, kept []uint64) {
	if len(ords) == 0 {
		return
	}
	survivorSweeps.Inc()
	_, _, wfp := s.decompose(1, 1.0) // weight 1.0 quantized exactly as the scalar path does
	width := int(s.cols)
	for r := 0; r < s.rows; r++ {
		rc, rs := h.row(r)
		applyRow(s.table[r*width:r*width+width], rc, rs, ords, kept, uint64(wfp), rowBit0<<uint(r))
	}
}

// applyRow is one row's sweep of applySurvivors, split out so the loop
// keeps its operands in registers: survivor t adds its count times wfp
// to its key's bucket when its mask has this row's bit. A masked-out
// row adds zero rather than branching.
//
//go:noinline
func applyRow(row []cell, rc []uint32, rs []int8, ords []uint32, kept []uint64, wfp, bit uint64) {
	rs, ords = rs[:len(rc)], ords[:len(kept)]
	for t, k := range kept {
		amt := (k & maxCount) * wfp
		if k&bit == 0 {
			amt = 0 // a conditional move, not a branch
		}
		// side 0 (positive mass) iff sign(delta)*g > 0: the XOR of the
		// two sign bits.
		o := ords[t]
		side := (uint8(rs[o])>>7 ^ uint8(k>>63)) & 1
		row[rc[o]][side] += int64(amt)
	}
}

// UpdateWeighted feeds an update whose unit updates each carry the given
// positive weight (the L1 sampler passes weight = 1/t_i). The weight is
// quantized to FixedPointBits of sub-unit resolution.
func (s *Sketch) UpdateWeighted(i uint64, delta int64, weight float64) {
	if delta == 0 {
		return
	}
	sign, mag, wfp := s.decompose(delta, weight)
	s.updateUnits(i, sign, mag, wfp)
}

// decompose splits a weighted update into the (sign, magnitude,
// fixed-point sub-units) triple updateUnits consumes — the single home
// of the weight quantization and the counter-overflow clamp, shared by
// Sketch and TailEstimator so the two can never drift apart.
func (s *Sketch) decompose(delta int64, weight float64) (sign, mag, wfp int64) {
	if weight <= 0 {
		panic("csss: nonpositive weight")
	}
	mag, sign = delta, 1
	if mag < 0 {
		mag, sign = -mag, -1
	}
	wfp = int64(math.Round(weight * float64(s.fpUnit)))
	if wfp < 1 {
		wfp = 1
	}
	const weightCap = int64(1) << 42 // avoid int64 overflow in counters
	if wfp > weightCap {
		wfp = weightCap
	}
	return sign, mag, wfp
}

// updateUnits ingests mag pre-decomposed unit updates of the given sign,
// each carrying wfp fixed-point sub-units. It is the common tail of
// UpdateWeighted, split out so TailEstimator pays the weight
// quantization once for its two instances.
func (s *Sketch) updateUnits(i uint64, sign, mag, wfp int64) {
	for mag > 0 {
		// Process the unit updates up to (but excluding) the next halving
		// boundary in one chunk: all are sampled at the same rate 2^-p,
		// so per row the sampled count is Bin(chunk, 2^-p) — the same
		// binomial shortcut Section 1.3 licenses for large updates.
		chunk := mag
		if room := s.nextHalf - 1 - s.t; room < chunk {
			chunk = room
		}
		if chunk <= 0 {
			// The next unit lands exactly on the boundary: advance one
			// position, halve, and sample that single unit at the new
			// rate (Figure 2 halves before sampling the boundary update).
			s.t++
			s.maybeHalve()
			s.addSampled(i, sign, wfp, 1)
			mag--
			continue
		}
		s.t += chunk
		s.addSampled(i, sign, wfp, chunk)
		mag -= chunk
	}
}

// ensureKeyScratch makes the per-row scratch (bucket, sign, flat cell
// index) valid for key i: one 4-wise evaluation per row, reused across
// the chunks of an update, across consecutive updates to the same key,
// and by Query. The hash functions are fixed at construction, so the
// memo never goes stale.
func (s *Sketch) ensureKeyScratch(i uint64) {
	if !s.haveLast || s.lastKey != i {
		s.buckets.BucketSignsInto(i, s.rowCols, s.rowSigns)
		for r := 0; r < s.rows; r++ {
			s.rowIdx[r] = r*int(s.cols) + int(s.rowCols[r])
		}
		s.lastKey = i
		s.lastSign = 0 // force the side recomputation in ensureScratch
		s.haveLast = true
	}
}

// ensureScratch extends ensureKeyScratch with the per-update write
// side: sign*g > 0 feeds the positive mass (side 0), otherwise the
// negative (side 1) — computed branchlessly, and only when the (key,
// sign) pair changed, so the sampled write loop is a pure indexed add.
// It is called lazily, at the first row write of an update: an update
// that is sampled out everywhere costs no hashing at all (the deep-
// sampling regime where 2^-p is tiny and almost every update drops).
func (s *Sketch) ensureScratch(i uint64, sign int64) {
	s.ensureKeyScratch(i)
	if sign != s.lastSign {
		for r := 0; r < s.rows; r++ {
			s.rowSide[r] = int((1 - sign*s.rowSigns[r]) >> 1)
		}
		s.lastSign = sign
	}
}

// addSampled samples `units` unit updates of the given sign into every
// row independently at the current rate 2^-p. Row hashes are computed
// only when at least one row actually samples the update.
func (s *Sketch) addSampled(i uint64, sign, wfp, units int64) {
	if s.p == 0 {
		// Sampling rate 1: every row takes the whole chunk; skip the
		// random draws entirely (the regime until the stream passes 2S
		// units).
		s.ensureScratch(i, sign)
		for r := 0; r < s.rows; r++ {
			s.bump(r, units*wfp)
		}
		return
	}
	if units == 1 && s.p*s.rows <= 64 {
		// One random word funds all rows' independent 2^-p coin flips:
		// disjoint p-bit fields are independent fair bits, so "field ==
		// 0" is exactly a rate-2^-p event per row with one rng draw
		// instead of one per row.
		w := s.rng.Get().Uint64()
		mask := uint64(1)<<uint(s.p) - 1
		var hits uint64
		for r := 0; r < s.rows; r++ {
			if w&mask == 0 {
				hits |= 1 << uint(r)
			}
			w >>= uint(s.p)
		}
		if hits == 0 {
			return
		}
		s.ensureScratch(i, sign)
		for r := 0; r < s.rows; r++ {
			if hits&(1<<uint(r)) != 0 {
				s.bump(r, wfp)
			}
		}
		return
	}
	rate, rng := math.Ldexp(1, -s.p), s.rng.Get()
	any := false
	for r := 0; r < s.rows; r++ {
		var cnt int64
		if units == 1 {
			if sample.Dyadic(rng, s.p) {
				cnt = 1
			}
		} else {
			cnt = sample.Binomial(rng, units, rate)
		}
		s.cnts[r] = cnt
		any = any || cnt != 0
	}
	if !any {
		return
	}
	s.ensureScratch(i, sign)
	for r := 0; r < s.rows; r++ {
		if s.cnts[r] != 0 {
			s.bump(r, s.cnts[r]*wfp)
		}
	}
}

// bump adds `amount` sampled sub-units to row r's precomputed cell and
// side. Counters only grow between halvings, so the largest-ever
// diagnostic is recovered by scanning at halving time and in SpaceBits
// (refreshMaxCount) instead of two compares per write.
func (s *Sketch) bump(r int, amount int64) {
	s.table[s.rowIdx[r]][s.rowSide[r]] += amount
}

// counters views the table as its 2·cells counters in cell order,
// positive side first: the column the wire packs. No counter is
// negative, so the unsigned view reads each one's value.
func (s *Sketch) counters() []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s.table[0])), 2*len(s.table))
}

// refreshMaxCount folds the current table maximum into maxCount.
// Because pos/neg increase monotonically between halvings and only
// shrink at a halving, scanning just before each halving and at
// SpaceBits time observes every per-epoch peak — the same value the
// historical per-write tracking maintained.
func (s *Sketch) refreshMaxCount() {
	m := s.maxCount
	for c := range s.table {
		cl := &s.table[c]
		if cl[0] > m {
			m = cl[0]
		}
		if cl[1] > m {
			m = cl[1]
		}
	}
	s.maxCount = m
}

// maybeHalve applies the Figure 2 step 5(a) boundary: when t crosses
// S*2^r + 1, thin every counter by Bin(a, 1/2) and bump p.
func (s *Sketch) maybeHalve() {
	for s.t >= s.nextHalf {
		s.halveOnce()
	}
}

// RaiseExponent thins the table down to rate 2^-p, one halveOnce per
// level, and leaves a sketch already at p or coarser alone: the loop
// Merge runs to align two sketches' rates, and the one a site runs when
// its fleet's union samples more coarsely than it does. The halving
// boundary moves up with each step, so afterwards the sketch keeps
// sampling at 2^-p until its own position reaches S*2^(p+1) + 1. The
// caller keeps p inside ExponentFits.
func (s *Sketch) RaiseExponent(p int) {
	for s.p < p {
		s.halveOnce()
	}
}

// ExponentFits reports whether exponent p keeps the sketch's clock one
// the wire carries: the bound Fill applies, under which the halving
// boundary S*2^(p+1) + 1 stays inside int64.
func (s *Sketch) ExponentFits(p int) bool {
	return p >= 0 && p <= 60 && s.params.S <= int64(1)<<(61-uint(p))
}

// ExponentAt is the exponent the Figure 2 schedule sets at position t:
// the number of boundaries S*2^(r+1) + 1, r >= 0, that t has reached.
// Merge sums positions and re-applies the schedule, so a union of
// sketches whose summed position is t samples at 2^-max(ExponentAt(t),
// their largest p).
func (s *Sketch) ExponentAt(t int64) int {
	p := 0
	for t > 0 && (t-1)>>uint(p+1) >= s.params.S {
		p++
	}
	return p
}

// halveOnce performs one halving step unconditionally: thin every
// counter by Bin(a, 1/2) and move the sampling exponent up one level.
// maybeHalve drives it on schedule; RaiseExponent drives it to a rate
// set from outside (Merge's alignment, a fleet's exponent).
func (s *Sketch) halveOnce() {
	halvings.Inc()
	s.halved++
	s.refreshMaxCount()
	rng := s.rng.Get()
	for c := range s.table {
		cl := &s.table[c]
		cl[0] = sample.Half(rng, cl[0])
		cl[1] = sample.Half(rng, cl[1])
	}
	s.p++
	sampleExponent.Set(int64(s.p))
	s.scale *= 2
	s.estScale *= 2
	s.nextHalf = 2*s.nextHalf - 1 // S*2^r + 1 -> S*2^(r+1) + 1
}

// Merge folds another CSSS sketch built with the same seed and params
// into this one. Both sketches' tables are honest rate-2^-p samples of
// their input streams; the merge thins the finer-sampled sketch down to
// the coarser rate (extra halvings), adds counters coordinate-wise, sums
// stream positions, and re-applies the halving schedule at the combined
// position. other is read, never thinned: when it is the finer one, a
// COPY of its table is halved, under an rng seeded as Clone seeds one —
// the one word Merge takes from other (until the generator travels on
// the wire, ROADMAP 4a). While neither sketch has halved (the rate-1
// regime), the merge is exact: counters equal a single sketch's that
// ingested the concatenated stream.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("csss: merge with nil sketch")
	}
	if s.params != other.params {
		return fmt.Errorf("csss: merging sketches with different params (%+v vs %+v)", s.params, other.params)
	}
	s.RaiseExponent(other.p)
	if other.p < s.p {
		thin := *other // halveOnce touches table, rng, the rate fields and halved only
		thin.table = slices.Clone(other.table)
		thin.rng = sample.Seeded(other.rng.Get().Int63())
		thin.halved = 0
		thin.RaiseExponent(s.p)
		s.halved += thin.halved
		other = &thin
	}
	for c := range s.table {
		s.table[c][0] += other.table[c][0]
		s.table[c][1] += other.table[c][1]
	}
	s.t += other.t
	if other.maxCount > s.maxCount {
		s.maxCount = other.maxCount
	}
	s.haveLast = false // the memoized cell contents changed
	s.maybeHalve()
	sampleExponent.Set(int64(s.p)) // the thinned copy may have halved last
	return nil
}

// MergeAll returns s merged with others, written into dst (nil, s
// itself — the merge runs in place — or an earlier copy nobody else
// holds; never one of others): the state, and the draws, of the chain
// s.CloneInto(dst) followed by Merge of each of others in order. When
// every sketch samples at s's rate and their summed position stays
// below s's next halving, no step of that chain halves or thins, so the
// tables are summed block by block in one pass straight into dst;
// otherwise the chain runs. Params are checked before anything is
// written.
func (s *Sketch) MergeAll(dst *Sketch, others []*Sketch) (*Sketch, error) {
	t, aligned := s.t, true
	for _, o := range others {
		if o == nil {
			return nil, fmt.Errorf("csss: merge with nil sketch")
		}
		if o.params != s.params {
			return nil, fmt.Errorf("csss: merging sketches with different params (%+v vs %+v)", s.params, o.params)
		}
		t += o.t
		aligned = aligned && o.p == s.p
	}
	if !aligned || t >= s.nextHalf {
		if dst != s {
			dst = s.CloneInto(dst)
		}
		for _, o := range others {
			if err := dst.Merge(o); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	var first []uint64 // nil in place: dst already holds s's counters
	if dst != s {
		dst, first = s.shellInto(dst), s.counters()
	}
	core.SumBlocks(dst.counters(), first, len(others), func(j int) []uint64 { return others[j].counters() })
	dst.t = t
	for _, o := range others {
		dst.maxCount = max(dst.maxCount, o.maxCount)
	}
	dst.haveLast = false
	sampleExponent.Set(int64(dst.p))
	return dst, nil
}

// Shift moves s's table by add's minus sub's, the linear step of a
// union kept in place: when s is the sum of some sketches' tables,
// replacing sub by add among them leaves it the sum of the new set,
// exactly — a table sampled at one rate is an integer table. sub may be
// nil (add joins the set). The position moves by add's minus sub's. It
// refuses, changing nothing, unless both share s's params and exponent
// and the new position stays below s's next halving: past it the union
// would have halved, which no sum can say. maxCount is left as it was
// (MaxCountOf sets a union's). Neither argument is written.
func (s *Sketch) Shift(add, sub *Sketch) error {
	t := s.t + add.t
	for _, o := range []*Sketch{add, sub} {
		if o != nil && (o.params != s.params || o.p != s.p) {
			return fmt.Errorf("csss: shift by a sketch at %+v p=%d into one at %+v p=%d", o.params, o.p, s.params, s.p)
		}
	}
	if sub != nil {
		t -= sub.t
	}
	if t < 0 || t >= s.nextHalf {
		return fmt.Errorf("csss: shift to position %d leaves [0, %d), the exponent %d's", t, s.nextHalf, s.p)
	}
	v, a := s.counters(), add.counters()
	if sub == nil {
		for i := range v {
			v[i] += a[i]
		}
	} else {
		b := sub.counters()
		for i := range v {
			v[i] += a[i] - b[i]
		}
	}
	s.t, s.haveLast = t, false
	return nil
}

// MaxCountOf sets s's maxCount as MergeAll's summed pass sets a
// union's: the largest of its parts'.
func (s *Sketch) MaxCountOf(parts []*Sketch) {
	s.maxCount = 0
	for _, o := range parts {
		s.maxCount = max(s.maxCount, o.maxCount)
	}
}

// Halvings returns how many halvings s performed since it was built,
// decoded or copied, counting those of the copies Merge thinned to
// meet it: what one merge, or one k-way build into a copy, cost.
func (s *Sketch) Halvings() int64 { return s.halved }

// CloneInto returns a deep copy sharing the (immutable) hash wiring,
// written into dst (nil, or an earlier copy nobody else holds; its table
// and scratch are reused where the shape matches). The copy's rng stream
// is seeded by one draw of s's and built when the copy first draws.
func (s *Sketch) CloneInto(dst *Sketch) *Sketch {
	dst = s.shellInto(dst)
	copy(dst.table, s.table)
	return dst
}

// shellInto is CloneInto short of the table's contents, which are
// whatever dst held.
func (s *Sketch) shellInto(dst *Sketch) *Sketch {
	if dst == nil || dst.params != s.params {
		dst = (&Sketch{rows: s.rows}).withScratch()
	}
	c := *s
	c.table, c.rng, c.haveLast, c.halved = core.Grow(&dst.table, len(s.table)), sample.Seeded(s.rng.Get().Int63()), false, 0
	c.rowCols, c.rowSigns, c.rowIdx, c.rowSide = dst.rowCols, dst.rowSigns, dst.rowIdx, dst.rowSide
	c.cnts, c.qest, c.qBatch, c.resid = dst.cnts, dst.qest, dst.qBatch, dst.resid
	*dst = c
	return dst
}

// RowEstimate returns row r's rescaled estimate of f_i:
// 2^p * g_r(i) * (a+ - a-) / 2^fb.
func (s *Sketch) RowEstimate(r int, i uint64) float64 {
	c, g := s.buckets.BucketSign(r, i)
	cl := &s.table[uint64(r)*s.cols+c]
	return float64(g) * float64(cl[0]-cl[1]) * s.estScale
}

// Query returns the median-of-rows estimate y*_i of f_i (Figure 2 step 6).
// The median selects in place over a scratch buffer (no allocation),
// and a query for the key that was just updated reuses the update's row
// hash evaluations instead of recomputing them.
func (s *Sketch) Query(i uint64) float64 {
	s.ensureKeyScratch(i)
	if s.rows == 5 {
		// The sampler's depth: read the five cells straight into the
		// median network, no scratch traffic.
		return order.MedianOf5(
			s.cachedRowEstimate(0), s.cachedRowEstimate(1),
			s.cachedRowEstimate(2), s.cachedRowEstimate(3),
			s.cachedRowEstimate(4))
	}
	for r := 0; r < s.rows; r++ {
		s.qest[r] = s.cachedRowEstimate(r)
	}
	return order.MedianFloat64(s.qest)
}

// cachedRowEstimate reads row r's estimate for the memoized lastKey.
func (s *Sketch) cachedRowEstimate(r int) float64 {
	cl := &s.table[s.rowIdx[r]]
	return float64(s.rowSigns[r]) * float64(cl[0]-cl[1]) * s.estScale
}

// QueryColumns fills est[j] with Query(keys[j]) for every key —
// HashColumns, then EstimateHashed: the read path behind the public
// BatchPointQuerier capability. Answers are bit-identical to Query's;
// est must hold len(keys) entries.
func (s *Sketch) QueryColumns(b *core.Batch, keys []uint64, est []float64) {
	n := len(keys)
	if n == 0 {
		return
	}
	if len(est) < n {
		panic(fmt.Sprintf("csss: QueryColumns output holds %d entries, need %d", len(est), n))
	}
	cols, signs := s.HashColumns(b, keys)
	s.EstimateHashed(cols, signs, est[:n])
}

// HashColumns hashes the whole key column in ONE batch evaluation into
// b's column scratch and returns the keys' bucket and sign columns,
// row-major (rows x len(keys)) — the layout UpdateColumns returns and
// EstimateHashed reads.
func (s *Sketch) HashColumns(b *core.Batch, keys []uint64) (cols []uint32, signs []int8) {
	cols, signs = b.Cols32(s.rows*len(keys)), b.Signs8(s.rows*len(keys))
	s.buckets.BucketSignsBatch(keys, cols, signs)
	return cols, signs
}

// EstimateHashed is QueryColumns past the hash: cols and signs are the
// bucket and sign columns of len(est) keys (row-major, as HashColumns
// and UpdateColumns return them, or a candidate tracker caches them),
// and est[j] becomes the j-th key's Query. The gather stage sweeps the
// table row-major (every read of row r happens while r's cells are
// cache-resident) before the per-key medians select over the gathered
// estimate matrix.
func (s *Sketch) EstimateHashed(cols []uint32, signs []int8, est []float64) {
	n := len(est)
	if n == 0 {
		return
	}
	if len(cols) != s.rows*n || len(signs) != s.rows*n {
		panic(fmt.Sprintf("csss: EstimateHashed got %d buckets and %d signs for %d keys in %d rows", len(cols), len(signs), n, s.rows))
	}
	rowEst := core.Grow(&s.qBatch, s.rows*n)
	// The int64 differences land in the estimates' own memory.
	diffs := unsafe.Slice((*int64)(unsafe.Pointer(&rowEst[0])), len(rowEst))
	// ONE fused kernel call gathers every row's signed (a+ - a-)
	// differences over the table viewed as a flat int64 array (each
	// cell is a [2]int64 pair, so a row strides 2*cols ints). The float
	// conversion below is bit-identical to the old per-cell
	// float64(sign)*float64(a+ - a-) product: both sides are
	// nonnegative masses < 2^63, so the difference never saturates and
	// multiplying by ±1 is exact in both int64 and float64.
	cells := unsafe.Slice(&s.table[0][0], 2*len(s.table))
	hash.GatherSignDiffRows(cells, 2*int(s.cols), s.rows, cols, signs, diffs)
	for j, d := range diffs {
		rowEst[j] = float64(d) * s.estScale
	}
	switch s.rows {
	case 5:
		for j := 0; j < n; j++ {
			est[j] = order.MedianOf5(rowEst[j], rowEst[n+j], rowEst[2*n+j], rowEst[3*n+j], rowEst[4*n+j])
		}
	case 7:
		// The strict-turnstile depth: a columnar median kernel selects
		// all n medians over the row-major estimate matrix at once.
		hash.MedianOf7Columns(rowEst, est)
	default:
		for j := 0; j < n; j++ {
			for r := 0; r < s.rows; r++ {
				s.qest[r] = rowEst[r*n+j]
			}
			est[j] = order.MedianFloat64(s.qest)
		}
	}
}

// RowResidualL2 returns the L2 norm of row r after subtracting the
// sketch of the k-sparse approximation yhat, rescaled by 2^p. This is
// the "feed -yhat into CSSS2 and read the row L2" step of Lemma 5,
// computed without mutating the table.
func (s *Sketch) RowResidualL2(r int, yhat map[uint64]float64) float64 {
	if s.resid == nil {
		s.resid = make([]float64, s.cols)
	}
	resid := s.resid
	base := uint64(r) * s.cols
	for c := uint64(0); c < s.cols; c++ {
		cl := &s.table[base+c]
		resid[c] = float64(cl[0]-cl[1]) / float64(s.fpUnit) * s.scale
	}
	for j, v := range yhat {
		c, g := s.buckets.BucketSign(r, j)
		resid[c] -= float64(g) * v
	}
	var t float64
	for _, v := range resid {
		t += v * v
	}
	return math.Sqrt(t)
}

// Position returns t, the number of unit updates consumed.
func (s *Sketch) Position() int64 { return s.t }

// SampleExponent returns p; the current sampling rate is 2^-p.
func (s *Sketch) SampleExponent() int { return s.p }

// K returns the sensitivity parameter.
func (s *Sketch) K() int { return s.params.K }

// Rows returns d.
func (s *Sketch) Rows() int { return s.rows }

// SpaceBits charges each of the 2 * rows * cols counters at the width of
// the largest value ever held, plus hash seeds, plus the log(n)-bit
// position counter and the sampling exponent — Figure 2's layout.
func (s *Sketch) SpaceBits() int64 {
	s.refreshMaxCount()
	perCounter := int64(nt.BitsFor(uint64(s.maxCount)))
	counters := 2 * int64(s.rows) * int64(s.cols) * perCounter
	position := int64(nt.BitsFor(uint64(s.t))) + int64(nt.BitsFor(uint64(s.p)))
	return counters + position + s.buckets.SpaceBits()
}

// TailEstimator implements Lemma 5: using two independent CSSS
// instances, it produces v with
//
//	Err^k_2(f) <= v <= 45 sqrt(k) eps ||f||_1 + 20 Err^k_2(f)
//
// with high probability. The first instance supplies the point estimates
// and the k-sparse approximation; the second measures the residual norm.
type TailEstimator struct {
	CS1, CS2 *Sketch
	k        int
}

// NewTailEstimator builds the two-instance estimator with the given
// parameters (shared S, rows, K).
func NewTailEstimator(rng *rand.Rand, params Params) *TailEstimator {
	return &TailEstimator{CS1: New(rng, params), CS2: New(rng, params), k: params.K}
}

// Update feeds both instances.
func (te *TailEstimator) Update(i uint64, delta int64) {
	te.CS1.Update(i, delta)
	te.CS2.Update(i, delta)
}

// UpdateWeighted feeds both instances with a weighted update, paying
// the sign/magnitude decomposition and weight quantization once (both
// instances share FixedPointBits by construction).
func (te *TailEstimator) UpdateWeighted(i uint64, delta int64, w float64) {
	if delta == 0 {
		return
	}
	sign, mag, wfp := te.CS1.decompose(delta, w)
	te.CS1.updateUnits(i, sign, mag, wfp)
	te.CS2.updateUnits(i, sign, mag, wfp)
}

// Estimate returns (v, yhat): the tail-error bound and the k-sparse
// approximation used to compute it. candidates is the set of coordinates
// to consider for the top-k (callers track candidates with a heap; exact
// answers need only contain the true heavy coordinates). l1 is an upper
// estimate of ||f||_1 and eps the CSSS sensitivity used at construction.
func (te *TailEstimator) Estimate(candidates []uint64, l1, eps float64) (float64, map[uint64]float64) {
	// Top-k of CS1's estimates over the candidate set.
	type kv struct {
		i uint64
		v float64
	}
	ests := make([]kv, 0, len(candidates))
	for _, i := range candidates {
		ests = append(ests, kv{i, te.CS1.Query(i)})
	}
	sort.Slice(ests, func(a, b int) bool {
		av, bv := math.Abs(ests[a].v), math.Abs(ests[b].v)
		if av != bv {
			return av > bv
		}
		return ests[a].i < ests[b].i
	})
	if len(ests) > te.k {
		ests = ests[:te.k]
	}
	yhat := make(map[uint64]float64, len(ests))
	for _, e := range ests {
		yhat[e.i] = e.v
	}
	// Median of CS2's residual row L2s, then v = 2*median + 5 eps l1.
	rows := make([]float64, te.CS2.rows)
	for r := range rows {
		rows[r] = te.CS2.RowResidualL2(r, yhat)
	}
	sort.Float64s(rows)
	med := rows[len(rows)/2]
	v := 2*med + 5*eps*l1
	return v, yhat
}

// Merge folds another tail estimator (same seed/params) into this one.
func (te *TailEstimator) Merge(other *TailEstimator) error {
	if other == nil {
		return fmt.Errorf("csss: merge with nil TailEstimator")
	}
	if te.k != other.k {
		return fmt.Errorf("csss: merging TailEstimators with different k (%d vs %d)", te.k, other.k)
	}
	if err := te.CS1.Merge(other.CS1); err != nil {
		return err
	}
	return te.CS2.Merge(other.CS2)
}

// CloneInto returns a deep copy written into dst (see Sketch.CloneInto).
func (te *TailEstimator) CloneInto(dst *TailEstimator) *TailEstimator {
	dst = core.OrNew(dst)
	*dst = TailEstimator{CS1: te.CS1.CloneInto(dst.CS1), CS2: te.CS2.CloneInto(dst.CS2), k: te.k}
	return dst
}

// SpaceBits is the total cost of both instances.
func (te *TailEstimator) SpaceBits() int64 {
	return te.CS1.SpaceBits() + te.CS2.SpaceBits()
}
