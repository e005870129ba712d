package l0

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/nt"
	"repro/internal/sample"
	"repro/internal/wire"
)

// cell is the test payload: its level, the estimate it was opened at,
// and what it has been fed since.
type cell struct {
	level     int
	born, sum int64
}

func copyCell(c, dst *cell) *cell {
	if dst == nil {
		dst = new(cell)
	}
	*dst = *c
	return dst
}

func addCell(dst, src *cell) error {
	dst.sum += src.sum
	dst.born = min(dst.born, src.born)
	return nil
}

// shape is the fuzzer-owned geometry of one window: its top level, its
// always-on top levels, a centre formula log2(R+1) + shift with its own
// reach below and above (either end may leave 0..top) — or, not
// windowed, the keep-all-levels baseline.
type shape struct {
	top, alwaysOn       int
	windowed            bool
	shift, below, above int
}

func (s shape) span(est int64) (int, int) {
	center := nt.Log2Floor(uint64(est)+1) + s.shift
	return center - s.below, center + s.above
}

// refWindow is the array window RoughL0, Estimator and Sampler each
// carried before Window existed, kept verbatim as the oracle: a private
// slot array, the syncedAt protocol, liveRange with its clamps,
// syncLevels over every slot (RoughL0's created map, Estimator's peak,
// Sampler's always-on rule), the three-way merge switch, the clone and
// count loops, and the hand-written level-list writer and reader.
type refWindow struct {
	shape
	levels   [65]*cell
	syncedAt int64
	peak     int
	created  map[int]bool
}

func newRefWindow(s shape) *refWindow {
	r := &refWindow{shape: s, created: map[int]bool{}}
	r.syncLevels(0)
	return r
}

func (r *refWindow) liveRange(est int64) (int, int) {
	if !r.windowed {
		return 0, r.top
	}
	lo, hi := r.span(est)
	if lo < 0 {
		lo = 0
	}
	if hi > r.top {
		hi = r.top
	}
	return lo, hi
}

func (r *refWindow) syncLevels(est int64) {
	lo, hi := r.liveRange(est)
	for j := range r.levels {
		inWindow := j >= lo && j <= hi
		alwaysOn := j > r.top-r.alwaysOn && j <= r.top
		switch {
		case !inWindow && !alwaysOn:
			r.levels[j] = nil
		case r.levels[j] == nil:
			r.levels[j] = &cell{level: j, born: est}
			r.created[j] = true
		}
	}
	if live := r.live(); live > r.peak {
		r.peak = live
	}
	r.syncedAt = est
}

// update is the per-item order every structure used: rough estimate,
// then the window it produces (the caller applies the item next). The
// baseline sampler fed its estimator and let nothing move.
func (r *refWindow) update(rough *RoughF0, i uint64) {
	rough.Update(i)
	if r.windowed && rough.Estimate() != r.syncedAt {
		r.syncLevels(rough.Estimate())
	}
}

func (r *refWindow) merge(o *refWindow, est int64) {
	for j, oc := range o.levels {
		switch c := r.levels[j]; {
		case oc == nil:
		case c != nil:
			_ = addCell(c, oc)
		default:
			r.levels[j] = copyCell(oc, nil)
			r.created[j] = true
		}
	}
	if o.peak > r.peak {
		r.peak = o.peak
	}
	r.syncLevels(est)
}

func (r *refWindow) clone() *refWindow {
	c := *r
	c.created = make(map[int]bool, len(r.created))
	for j, rc := range r.levels {
		if rc != nil {
			c.levels[j] = copyCell(rc, nil)
		}
	}
	for j := range r.created {
		c.created[j] = true
	}
	return &c
}

func (r *refWindow) At(j int) *cell     { return r.levels[j] }
func (r *refWindow) From(j int) []*cell { return r.levels[j:] }

func (r *refWindow) live() int {
	live := 0
	for _, c := range r.levels {
		if c != nil {
			live++
		}
	}
	return live
}

const windowTestMagic = "WT"

func (r *refWindow) marshal() []byte {
	wr := wire.NewWriter(windowTestMagic, 1)
	wr.U32(uint32(r.peak))
	wr.U32(uint32(r.live()))
	for j, c := range r.levels {
		if c == nil {
			continue
		}
		wr.U32(uint32(j))
		putCell(wr, c)
	}
	created := make([]int, 0, len(r.created))
	for j := range r.created {
		created = append(created, j)
	}
	sort.Ints(created)
	wr.U32(uint32(len(created)))
	for _, j := range created {
		wr.U32(uint32(j))
	}
	return wr.Bytes()
}

func unmarshalRef(data []byte, s shape) (*refWindow, error) {
	rd, _, err := wire.NewReader(data, windowTestMagic)
	if err != nil {
		return nil, err
	}
	r := &refWindow{shape: s, created: map[int]bool{}, syncedAt: unsynced}
	r.peak = int(rd.U32())
	n := int(rd.U32())
	if n > rd.Remaining() {
		return nil, errors.New("bad level count")
	}
	for i := 0; i < n; i++ {
		j := int(rd.U32())
		c := getCell(rd)
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if j > s.top {
			return nil, errors.New("level out of range")
		}
		if r.levels[j] != nil {
			return nil, errors.New("duplicate level")
		}
		r.levels[j] = c
	}
	n = int(rd.U32())
	if n*4 > rd.Remaining() {
		return nil, errors.New("bad created count")
	}
	for i := 0; i < n; i++ {
		r.created[int(rd.U32())] = true
	}
	return r, rd.Done()
}

func putCell(wr *wire.Writer, c *cell) {
	wr.U32(uint32(c.level))
	wr.I64(c.born)
	wr.I64(c.sum)
}

func getCell(rd *wire.Reader) *cell {
	return &cell{level: int(rd.U32()), born: rd.I64(), sum: rd.I64()}
}

func marshalWindow(w *Window[cell]) []byte {
	wr := wire.NewWriter(windowTestMagic, 1)
	wr.U32(uint32(w.Peak()))
	w.WriteLevels(wr, func(c *cell) { putCell(wr, c) })
	w.WriteEver(wr)
	return wr.Bytes()
}

func unmarshalWindow(data []byte, s shape) (Window[cell], error) {
	w := NewWindow[cell](s.top, s.windowed, s.alwaysOn, nil)
	rd, _, err := wire.NewReader(data, windowTestMagic)
	if err != nil {
		return w, err
	}
	peak := int(rd.U32())
	w.ReadLevels(rd, peak, func(int, *cell) *cell { return getCell(rd) })
	w.ReadEver(rd)
	return w, rd.Done()
}

// checkWindow asserts w holds exactly ref's slots and payloads, visits
// them in ascending j, counts and peaks as ref does, and encodes to the
// reference's bytes.
func checkWindow(t *testing.T, w *Window[cell], ref *refWindow, at string) {
	t.Helper()
	var want []int
	for j, rc := range ref.levels {
		c := w.At(j)
		if (c == nil) != (rc == nil) || c != nil && *c != *rc {
			t.Fatalf("%s: level %d holds %+v, reference %+v", at, j, c, rc)
		}
		if rc != nil {
			want = append(want, j)
		}
		if tail := w.From(j); len(tail) != sample.NumSlots-j || tail[0] != c {
			t.Fatalf("%s: From(%d) is not the slots from %d up", at, j, j)
		}
	}
	var got []int
	for j, c := range w.Each {
		got = append(got, j)
		if c != w.At(j) {
			t.Fatalf("%s: Each yields another payload than At(%d)", at, j)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: traversal %v, reference %v", at, got, want)
	}
	if w.Len() != ref.live() {
		t.Fatalf("%s: Len %d, reference %d", at, w.Len(), ref.live())
	}
	if w.Peak() != ref.peak {
		t.Fatalf("%s: Peak %d, reference %d", at, w.Peak(), ref.peak)
	}
	if a, b := marshalWindow(w), ref.marshal(); !bytes.Equal(a, b) {
		t.Fatalf("%s: encoding differs from the reference\n got %x\nwant %x", at, a, b)
	}
}

// FuzzRoughWindowDifferential drives a Window and the array reference
// through one fuzzer-owned program over a fuzzer-owned geometry — key
// runs that raise R_t fed per item (Observe) and per column (CutRuns),
// merges of windows synced at different estimates, clones, crafted
// level lists, marshal round trips — and compares slots, payloads, live
// count, peak, traversal order and bytes after every instruction.
func FuzzRoughWindowDifferential(f *testing.F) {
	// per item, per column, a burst that moves R_t many times, round trip
	f.Add(uint8(30), uint8(0), int8(0), uint8(2), uint8(2), []byte{0, 9, 1, 40, 2, 9, 4, 0, 1, 200, 2, 11, 0, 3})
	// Figure 8's shape: the centre falls as R_t rises, two top levels stay
	f.Add(uint8(20), uint8(2), int8(-3), uint8(3), uint8(3), []byte{2, 6, 7, 0, 2, 8, 4, 0, 1, 9, 2, 10})
	// b synced low, a synced high: the merged estimate is a's, yet b's
	// levels must go — Merge has to leave the window unsynced
	f.Add(uint8(40), uint8(0), int8(0), uint8(1), uint8(1), []byte{2, 9, 5, 0, 0, 3, 5, 0, 3, 0, 0, 1})
	// and the other way round, then on
	f.Add(uint8(40), uint8(1), int8(2), uint8(1), uint8(4), []byte{0, 3, 5, 0, 2, 9, 5, 0, 3, 0, 1, 30, 7, 0, 2, 5})
	// crafted lists: extra, missing, non-adjacent, the top slot; then
	// converge per column and per item, merge a crafted window in
	f.Add(uint8(63), uint8(0), int8(1), uint8(2), uint8(0), []byte{2, 7, 6, 0xff, 1, 5, 6, 0x81, 0, 0, 5, 0, 6, 0x5a, 5, 0, 3, 0, 4, 0})
	// the baseline: every level for good, whatever is fed, merged or restored
	f.Add(uint8(12), uint8(4), int8(0), uint8(1), uint8(1), []byte{0, 9, 2, 8, 6, 0x33, 1, 3, 5, 0, 2, 5, 5, 0, 3, 0, 4, 0, 2, 23})
	// a window wider than the level range, top at the last slot
	f.Add(uint8(255), uint8(3), int8(-100), uint8(200), uint8(200), []byte{2, 8, 6, 0x0f, 3, 0, 7, 0, 4, 0})
	f.Fuzz(func(t *testing.T, top, alwaysOn uint8, shift int8, below, above uint8, prog []byte) {
		if len(prog) > 200 {
			return
		}
		s := shape{top: int(top) % sample.NumSlots, alwaysOn: int(alwaysOn) % 4, windowed: alwaysOn&4 == 0,
			shift: int(shift), below: int(below), above: int(above)}
		type side struct {
			w               Window[cell]
			ref             *refWindow
			rough, refRough *RoughF0
			fresh, stride   uint64 // next never-seen key: the sides feed disjoint keys
		}
		newSide := func(first uint64) *side {
			sd := &side{
				w:        NewWindow[cell](s.top, s.windowed, s.alwaysOn, nil),
				ref:      newRefWindow(s),
				rough:    NewRoughF0(rand.New(rand.NewSource(5)), 3),
				refRough: NewRoughF0(rand.New(rand.NewSource(5)), 3),
				fresh:    first, stride: 2,
			}
			sd.w.Sync(sd.rough, s.span, func(j int) *cell { return &cell{level: j} })
			return sd
		}
		a, b := newSide(1), newSide(2)
		var spare Window[cell] // a window nothing holds any more, and its payloads
		newLevel := func(j int) *cell { return &cell{level: j, born: a.rough.Estimate()} }
		// An item lands on one level, as the L0 structures route it, or on
		// every level from there up, as the support sampler does.
		route := func(i uint64, to interface {
			At(j int) *cell
			From(j int) []*cell
		}) {
			from, amount := int(i%uint64(s.top+1)), int64(i>>8&0xff)+1
			if i>>16&1 == 0 {
				if c := to.At(from); c != nil {
					c.sum += amount
				}
				return
			}
			for _, c := range to.From(from) {
				if c != nil {
					c.sum += amount
				}
			}
		}
		// keys draws n keys: never-seen ones (they raise R_t) with every
		// fourth a revisit.
		keys := func(n int) []uint64 {
			ks := make([]uint64, n)
			for j := range ks {
				c := a.fresh
				if j%4 == 3 {
					c = 1 + (c*7)%a.fresh
				} else {
					a.fresh += a.stride
				}
				ks[j] = c * 0x9E3779B97F4A7C15
			}
			return ks
		}
		perItem := func(ks []uint64) {
			for _, i := range ks {
				a.w.Observe(a.rough, i, s.span, newLevel)
				route(i, &a.w)
				a.ref.update(a.refRough, i)
				route(i, a.ref)
			}
		}
		perColumn := func(ks []uint64) {
			a.w.CutRuns(a.rough, ks, s.span, newLevel, func(lo, hi int) {
				for _, i := range ks[lo:hi] {
					route(i, &a.w)
				}
			})
			for _, i := range ks {
				a.ref.update(a.refRough, i)
				route(i, a.ref)
			}
		}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc], prog[pc+1]
			at := fmt.Sprintf("%+v pc %d op %d arg %d R %d", s, pc, op%8, arg, a.rough.Estimate())
			switch op % 8 {
			case 0: // arg+1 keys, per item
				perItem(keys(int(arg) + 1))
			case 1: // 4*(arg+1) keys, per column
				perColumn(keys(4 * (int(arg) + 1)))
			case 2: // a burst of 2^(arg%12) keys, alternating paths
				if ks := keys(1 << (arg % 12)); arg&16 == 0 {
					perColumn(ks)
				} else {
					perItem(ks)
				}
			case 3: // merge b into a
				if err := a.rough.Merge(b.rough); err != nil {
					t.Fatal(err)
				}
				if err := a.refRough.Merge(b.refRough); err != nil {
					t.Fatal(err)
				}
				if err := a.w.Merge(&b.w, addCell, copyCell); err != nil {
					t.Fatal(err)
				}
				a.w.Sync(a.rough, s.span, newLevel)
				a.ref.merge(b.ref, a.refRough.Estimate())
			case 4: // marshal round trip on both
				w, err := unmarshalWindow(marshalWindow(&a.w), s)
				if err != nil {
					t.Fatalf("%s: own encoding refused: %v", at, err)
				}
				ref, err := unmarshalRef(a.ref.marshal(), s)
				if err != nil {
					t.Fatalf("%s: reference encoding refused: %v", at, err)
				}
				a.w, a.ref = w, ref
			case 5: // work on the other window for a while
				a, b = b, a
			case 6: // restore a crafted list: extra, missing, non-adjacent, top
				craft := &refWindow{shape: s, created: map[int]bool{}, peak: int(arg % 7)}
				for bit := 0; bit < 8; bit++ {
					if arg>>bit&1 == 0 {
						continue
					}
					j := bit * 9 % (s.top + 1)
					if bit == 7 {
						j = s.top
					}
					craft.levels[j] = &cell{level: j, born: int64(bit), sum: int64(arg)}
					craft.created[(j+bit)%(s.top+1)] = true
				}
				w, err := unmarshalWindow(craft.marshal(), s)
				if err != nil {
					t.Fatalf("%s: crafted list refused: %v", at, err)
				}
				ref, err := unmarshalRef(craft.marshal(), s)
				if err != nil {
					t.Fatalf("%s: reference refused the crafted list: %v", at, err)
				}
				a.w, a.ref = w, ref
			case 7: // clone into the window dropped last time, then scribble on the original
				old, oldRef := a.w, a.ref
				a.w, a.ref = old.Clone(&spare, copyCell), oldRef.clone()
				for j, c := range old.Each {
					c.sum = -1
					oldRef.levels[j].sum = -2
				}
				spare = old
			}
			if a.rough.Estimate() != a.refRough.Estimate() {
				t.Fatalf("%s: the two rough estimators disagree", at)
			}
			checkWindow(t, &a.w, a.ref, at)
			checkWindow(t, &b.w, b.ref, at+" (other)")
		}
	})
}
