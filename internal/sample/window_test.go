package sample

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/wire"
)

// cell is the test payload: where the level was opened and what it has
// been fed since.
type cell struct{ born, sum int64 }

func copyCell(c, dst *cell) *cell {
	if dst == nil {
		dst = new(cell)
	}
	*dst = *c
	return dst
}

func addCell(dst, src *cell) {
	dst.sum += src.sum
	dst.born = min(dst.born, src.born)
}

// refWindow is the map-based window l1, cauchy and inner each carried
// before Window existed — re-divide t and scan the map on every sync,
// sort the keys to marshal. It is the oracle Window is pinned against.
type refWindow struct {
	base   int64
	levels map[int]*cell
}

func newRefWindow(base int64) *refWindow {
	return &refWindow{base: base, levels: map[int]*cell{}}
}

func (r *refWindow) sync(t int64) {
	lo, hi := ActiveLevels(t, r.base)
	for j := range r.levels {
		if j < lo || j > hi {
			delete(r.levels, j)
		}
	}
	for j := lo; j <= hi; j++ {
		if r.levels[j] == nil {
			r.levels[j] = &cell{born: t}
		}
	}
}

func (r *refWindow) merge(o *refWindow) {
	for j, oc := range o.levels {
		if c := r.levels[j]; c != nil {
			addCell(c, oc)
		} else {
			r.levels[j] = copyCell(oc, nil)
		}
	}
}

func (r *refWindow) sorted() []int {
	js := make([]int, 0, len(r.levels))
	for j := range r.levels {
		js = append(js, j)
	}
	sort.Ints(js)
	return js
}

// run is the number of positions from t >= 1 on (at most n) over which
// ActiveLevels does not move, found by bisection on ActiveLevels alone;
// a set that holds through MaxInt64 never moves again.
func (r *refWindow) run(t, n int64) int64 {
	_, hi := ActiveLevels(t, r.base)
	room := math.MaxInt64 - t + 1
	lo, up := int64(1), min(n, room)
	for lo < up {
		mid := lo + (up-lo+1)/2
		if _, h := ActiveLevels(t+mid-1, r.base); h == hi {
			lo = mid
		} else {
			up = mid - 1
		}
	}
	if lo == room {
		return n
	}
	return lo
}

const testMagic = "WT"

func marshalCell(wr *wire.Writer) func(*cell) {
	return func(c *cell) { wr.I64(c.born); wr.I64(c.sum) }
}

func (r *refWindow) marshal() []byte {
	wr := wire.NewWriter(testMagic, 1)
	wr.U32(uint32(len(r.levels)))
	for _, j := range r.sorted() {
		wr.U32(uint32(j))
		marshalCell(wr)(r.levels[j])
	}
	return wr.Bytes()
}

func marshalWindow(w *Window[cell]) []byte {
	wr := wire.NewWriter(testMagic, 1)
	w.WriteLevels(wr, marshalCell(wr))
	return wr.Bytes()
}

func unmarshalWindow(data []byte, base int64) (*Window[cell], error) {
	rd, _, err := wire.NewReader(data, testMagic)
	if err != nil {
		return nil, err
	}
	w := NewWindow[cell](base)
	w.ReadLevels(rd, func(int) *cell { return &cell{born: rd.I64(), sum: rd.I64()} })
	return w, rd.Done()
}

// checkWindow asserts w holds exactly ref's levels and payloads, visits
// them in ascending j, and encodes to the reference's bytes.
func checkWindow(t *testing.T, w *Window[cell], ref *refWindow, at string) {
	t.Helper()
	want := ref.sorted()
	var got []int
	for j, c := range w.Each {
		got = append(got, j)
		if rc := ref.levels[j]; rc == nil || *rc != *c {
			t.Fatalf("%s: level %d holds %+v, reference %+v", at, j, c, rc)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: live levels %v, reference %v", at, got, want)
	}
	if w.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", at, w.Len(), len(want))
	}
	j, c := w.Oldest()
	if len(want) == 0 {
		if c != nil {
			t.Fatalf("%s: Oldest on an empty window returned level %d", at, j)
		}
	} else if j != want[0] || c == nil {
		t.Fatalf("%s: Oldest = level %d, want %d", at, j, want[0])
	}
	if a, b := marshalWindow(w), ref.marshal(); !bytes.Equal(a, b) {
		t.Fatalf("%s: encoding differs from the sorted reference\n got %x\nwant %x", at, a, b)
	}
}

func TestThin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	if Thin(rng, 7, 1) != 7 || Thin(rng, 1<<40, 1) != 1<<40 {
		t.Fatal("rate one keeps every unit")
	}
	// A run of one is the Int63n coin, draw for draw.
	a, b := rand.New(rand.NewSource(22)), rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		want := int64(0)
		if b.Int63n(16) == 0 {
			want = 1
		}
		if got := Thin(a, 1, 16); got != want {
			t.Fatalf("draw %d: Thin(1, 16) = %d, Int63n coin says %d", i, got, want)
		}
	}
	// A long run concentrates at run/denom.
	const run, denom = 1 << 40, 1 << 20
	got := float64(Thin(rng, run, denom))
	mean := float64(run / denom)
	if math.Abs(got-mean) > 10*math.Sqrt(mean) {
		t.Fatalf("Thin(2^40, 2^20) = %.0f, want about %.0f", got, mean)
	}
}

func TestAddPosSaturates(t *testing.T) {
	if AddPos(3, 4) != 7 || AddPos(math.MaxInt64-1, 1) != math.MaxInt64 ||
		AddPos(math.MaxInt64, math.MaxInt64) != math.MaxInt64 || AddPos(1<<62, 1<<62) != math.MaxInt64 {
		t.Fatal("AddPos must add nonnegative positions and saturate")
	}
}

// TestStepCoversHugeDeltas: a delta of any size is consumed in one run
// per window move, the runs tile the positions exactly, and a saturated
// position keeps making progress.
func TestStepCoversHugeDeltas(t *testing.T) {
	for _, base := range []int64{2, 4, 16, 1 << 20} {
		w, ref := NewWindow[cell](base), newRefWindow(base)
		var pos, steps int64
		for _, n := range []int64{1, 5, 1 << 40, math.MaxInt64 - 1<<41, 1 << 50, math.MaxInt64} {
			for left := n; left > 0; steps++ {
				before := pos
				run := w.Step(&pos, left, func(int) *cell { return &cell{born: pos} })
				if run < 1 || run > left {
					t.Fatalf("base %d: run %d outside [1, %d]", base, run, left)
				}
				first := AddPos(before, 1)
				if want := ref.run(first, left); run != want {
					t.Fatalf("base %d at %d: run %d, reference %d", base, first, run, want)
				}
				if pos != AddPos(before, run) {
					t.Fatalf("base %d: position %d after a run of %d from %d", base, pos, run, before)
				}
				ref.sync(first)
				checkWindow(t, w, ref, fmt.Sprintf("base %d position %d", base, first))
				left -= run
			}
		}
		if pos != math.MaxInt64 {
			t.Fatalf("base %d: position %d, want saturation", base, pos)
		}
		if steps > 6*64+6 {
			t.Fatalf("base %d: %d runs for six deltas; want O(log t) each", base, steps)
		}
	}
}

// FuzzWindowDifferential drives a Window and the map-based reference
// through one fuzzer-owned program — position jumps forward and back,
// unit and bulk steps, payload writes, merges with a second window,
// clones, crafted level lists, marshal round trips — and compares
// levels, payloads, order and bytes after every instruction.
func FuzzWindowDifferential(f *testing.F) {
	f.Add(int64(4), []byte{0, 3, 1, 9, 2, 5, 4, 0, 3, 0, 1, 200, 5, 0, 2, 1, 3, 0, 4, 0})
	f.Add(int64(2), []byte{1, 255, 1, 255, 2, 7, 6, 0x25, 1, 0, 4, 0, 7, 9, 3, 0})
	f.Add(int64(16), []byte{0, 40, 2, 1, 3, 0, 0, 62, 4, 0, 6, 0xff, 0, 1, 4, 0, 5, 0, 2, 2})
	f.Add(int64(math.MaxInt64), []byte{0, 62, 0, 62, 1, 1, 4, 0, 6, 1, 1, 1})
	// a synced window merged with crafted levels at an unmoved position
	f.Add(int64(4), []byte{0, 3, 5, 0, 6, 0xff, 5, 0, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, base int64, prog []byte) {
		if len(prog) > 400 {
			return
		}
		if base < 2 {
			base = 2 + (base&math.MaxInt64)%1000
		}
		type pair struct {
			w   *Window[cell]
			ref *refWindow
			pos int64
		}
		a := &pair{w: NewWindow[cell](base), ref: newRefWindow(base)}
		b := &pair{w: NewWindow[cell](base), ref: newRefWindow(base)}
		var spare *Window[cell] // a window nothing holds any more, and its payloads
		fresh := func(int) *cell { return &cell{born: a.pos} }
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc], prog[pc+1]
			at := fmt.Sprintf("base %d pc %d op %d arg %d pos %d", base, pc, op%8, arg, a.pos)
			switch op % 8 {
			case 0: // jump forward by 2^arg
				a.pos = AddPos(a.pos, int64(1)<<(arg%63))
				a.w.Sync(a.pos, fresh)
				a.ref.sync(a.pos)
			case 1: // consume arg+1 units (times 2^40 for odd op/8) in runs
				left := int64(arg) + 1
				if op/8%2 == 1 {
					left <<= 40
				}
				for steps := 0; left > 0; steps++ {
					if steps > 200 {
						t.Fatalf("%s: still stepping after 200 runs", at)
					}
					first := AddPos(a.pos, 1)
					run := a.w.Step(&a.pos, left, fresh)
					if want := a.ref.run(first, left); run != want {
						t.Fatalf("%s: run %d at %d, reference %d", at, run, first, want)
					}
					if run < 1 || run > left {
						t.Fatalf("%s: run %d outside [1, %d]", at, run, left)
					}
					// fresh read a.pos while it stood on the run's first position
					a.ref.sync(first)
					for j, c := range a.w.Each {
						c.sum += run * int64(j+1)
						a.ref.levels[j].sum += run * int64(j+1)
					}
					left -= run
				}
			case 2: // write every live level
				for _, c := range a.w.Each {
					c.sum += int64(arg)
				}
				for _, c := range a.ref.levels {
					c.sum += int64(arg)
				}
			case 3: // merge b into a
				a.w.Merge(b.w, addCell, copyCell)
				a.ref.merge(b.ref)
				a.pos = AddPos(a.pos, b.pos)
				a.w.Sync(a.pos, fresh)
				a.ref.sync(a.pos)
			case 4: // marshal round trip, continue on the restored window
				w, err := unmarshalWindow(marshalWindow(a.w), base)
				if err != nil {
					t.Fatalf("%s: own encoding refused: %v", at, err)
				}
				a.w = w
			case 5: // work on the other window for a while
				a, b = b, a
			case 6: // restore a crafted, possibly non-adjacent level list
				craft := newRefWindow(base)
				for bit := 0; bit < 8; bit++ {
					if arg>>bit&1 == 1 {
						craft.levels[bit*9%63] = &cell{born: int64(bit), sum: int64(arg)}
					}
				}
				w, err := unmarshalWindow(craft.marshal(), base)
				if err != nil {
					t.Fatalf("%s: crafted list refused: %v", at, err)
				}
				a.w, a.ref = w, craft
			case 7: // clone into the window dropped last time, then scribble on the original; jump back
				old := a.w
				a.w = a.w.CloneInto(spare, copyCell)
				for _, c := range old.Each {
					c.sum = -1
				}
				spare = old
				a.pos = int64(arg)
				a.w.Sync(a.pos, fresh)
				a.ref.sync(a.pos)
			}
			checkWindow(t, a.w, a.ref, at)
			checkWindow(t, b.w, b.ref, at+" (other)")
		}
	})
}

func TestReadLevelsRefuses(t *testing.T) {
	list := func(count uint32, js ...uint32) []byte {
		wr := wire.NewWriter(testMagic, 1)
		wr.U32(count)
		for _, j := range js {
			wr.U32(j)
			wr.I64(0)
			wr.I64(0)
		}
		return wr.Bytes()
	}
	for name, data := range map[string][]byte{
		"count past payload": list(1 << 30),
		"truncated level":    list(2, 0),
		"index past top":     list(1, 63),
		"duplicate level":    list(2, 5, 5),
	} {
		if _, err := unmarshalWindow(data, 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	w, err := unmarshalWindow(list(3, 62, 0, 7), 4)
	if err != nil {
		t.Fatalf("unordered, non-adjacent list with the top level refused: %v", err)
	}
	if got := marshalWindow(w); !bytes.Equal(got, list(3, 0, 7, 62)) {
		t.Fatalf("re-encoding is not ascending: %x", got)
	}
}
