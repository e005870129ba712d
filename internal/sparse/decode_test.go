package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/nt"
	"repro/internal/wire"
)

const p61 = int64(nt.MersennePrime61)

// remove peels (x, count) out of all three subtables, in place. The
// count is negated in the field, not in int64, where -MinInt64 overflows.
func (r *Recovery) remove(x uint64, count int64) {
	xm := x % nt.MersennePrime61
	fpx := r.fp.Field(x)
	dm := fieldOf(count)
	if dm != 0 {
		dm = nt.MersennePrime61 - dm
	}
	for t := 0; t < subtables; t++ {
		c := &r.cells[r.bucket(t, x)]
		c.count -= count
		c.keySum = nt.AddModMersenne61(c.keySum, nt.MulModMersenne61(dm, xm))
		c.fpSum = nt.AddModMersenne61(c.fpSum, nt.MulModMersenne61(dm, fpx))
	}
}

// referencePeel is the decode as it stood before the division test, the
// worklist and the scratch copy: a clone peeled in place by sweeping
// every cell until a sweep finds nothing, every nonzero cell's count
// inverted with the generic nt.PowMod. peels counts the singletons it
// removed, whatever the verdict.
func referencePeel(r *Recovery) (vec map[uint64]int64, peels int, err error) {
	work := r.CloneInto(nil)
	recovered := make(map[uint64]int64)
	for progress := true; progress; {
		progress = false
		for ci := range work.cells {
			c := work.cells[ci]
			if c.count == 0 {
				continue
			}
			cm := fieldOf(c.count)
			x := nt.MulModMersenne61(c.keySum, nt.PowMod(cm, nt.MersennePrime61-2, nt.MersennePrime61))
			if x >= work.universe || work.bucket(ci/work.perTable, x) != ci ||
				c.fpSum != nt.MulModMersenne61(cm, work.fp.Field(x)) {
				continue
			}
			work.remove(x, c.count)
			if recovered[x] += c.count; recovered[x] == 0 {
				delete(recovered, x)
			}
			progress = true
			if peels++; peels > subtables*work.perTable+work.capacity {
				return nil, peels, ErrDense
			}
		}
	}
	for _, c := range work.cells {
		if c != (cell{}) {
			return nil, peels, ErrDense
		}
	}
	if len(recovered) > work.capacity {
		return nil, peels, ErrDense
	}
	return recovered, peels, nil
}

func referenceDecode(r *Recovery) (map[uint64]int64, error) {
	vec, _, err := referencePeel(r)
	return vec, err
}

// checkAgainstReference holds one decode of r to the reference — same
// vector, same verdict, through the pair slice and through the map
// adapter — and to its contract: pairs ascending and distinct, the
// sketch left exactly as it was.
func checkAgainstReference(t *testing.T, r *Recovery, s *Scratch) (sparse bool) {
	t.Helper()
	before, beforeMax := slices.Clone(r.cells), r.maxCount
	want, wantErr := referenceDecode(r)
	pairs, gotErr := r.DecodeInto(s)
	if gotErr != wantErr {
		t.Fatalf("DecodeInto verdict %v, reference %v", gotErr, wantErr)
	}
	if gotErr == nil {
		got := make(map[uint64]int64, len(pairs))
		for i, p := range pairs {
			if p.Count == 0 || (i > 0 && pairs[i-1].Key >= p.Key) {
				t.Fatalf("pairs not ascending, distinct and nonzero at %d: %v", i, pairs)
			}
			got[p.Key] = p.Count
			if c := CountOf(pairs, p.Key); c != p.Count {
				t.Fatalf("CountOf(%d) = %d, pair holds %d", p.Key, c, p.Count)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeInto = %v, reference %v", got, want)
		}
	}
	viaMap, mapErr := r.Decode()
	if mapErr != wantErr || !reflect.DeepEqual(viaMap, want) {
		t.Fatalf("Decode = %v, %v; reference %v, %v", viaMap, mapErr, want, wantErr)
	}
	if !reflect.DeepEqual(before, r.cells) || r.maxCount != beforeMax {
		t.Fatal("decoding wrote the sketch")
	}
	return gotErr == nil
}

// straddlingCounts lists the counts around the division bound of a
// universe — (p-1)/(universe-1), the widest |count| that divides — with
// both signs, beside the unit, small, wide and extreme counts.
func straddlingCounts(universe uint64) []int64 {
	limit := int64(divisionLimit(universe))
	out := []int64{1, -1, 3, -3, 1 << 45, -(1 << 45), math.MaxInt64, math.MinInt64, p61 - 1, p61 + 1, -(p61 + 1)}
	for _, c := range []int64{limit - 1, limit, limit + 1} {
		out = append(out, c, -c)
	}
	return out
}

// TestDecodeMatchesReference: decoded vectors and DENSE verdicts are
// those of the reference on random sketches straddling the capacity —
// sparse, borderline, dense, with cancellations — over a universe where
// every ordinary count takes the division test (2^20), the benchmark's
// (2^32) and one whose bound is 2^17, so wide counts take the modular
// inverse (2^44); counts sit on the bound and one to either side of it,
// with both signs, and key 0 (whose keySum is 0 whatever it holds) is
// common.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var s Scratch
	for _, universe := range []uint64{1 << 20, 1 << 32, 1 << 44} {
		counts := straddlingCounts(universe)
		verdicts := map[bool]int{}
		for trial := 0; trial < 400; trial++ {
			capacity := 1 + rng.Intn(40)
			r := NewRecovery(rand.New(rand.NewSource(int64(trial))), capacity, universe)
			support := rng.Intn(3 * capacity)
			for i := 0; i < support; i++ {
				x := uint64(rng.Int63n(int64(universe)))
				if rng.Intn(8) == 0 {
					x = 0
				}
				d := counts[rng.Intn(len(counts))]
				r.Update(x, d)
				if rng.Intn(5) == 0 {
					r.Update(x, -d) // cancelled: must vanish from the decode
				}
			}
			verdicts[checkAgainstReference(t, r, &s)]++
		}
		if verdicts[true] < 50 || verdicts[false] < 50 {
			t.Fatalf("universe %d, verdicts %v: want both sparse and DENSE well represented", universe, verdicts)
		}
	}
}

// TestDecodeEdgeCounts: the cells the division test must hand to the
// fallback, or must not divide by. A count that is 0 in the field hides
// its key from both sums, so only key 0 can be named for it; a universe
// of one key leaves no count that divides, and an empty universe no key
// at all.
func TestDecodeEdgeCounts(t *testing.T) {
	var s Scratch
	for _, tc := range []struct {
		name     string
		universe uint64
		key      uint64
		count    int64
		sparse   bool
	}{
		{"key 0 holding p", 1 << 32, 0, p61, true},
		{"key 0 holding -p", 1 << 32, 0, -p61, true},
		{"key 0 holding 4p", 1 << 32, 0, 4 * p61, true},
		{"key 7 holding p", 1 << 32, 7, p61, false},
		{"key 0 holding MinInt64", 1 << 44, 0, math.MinInt64, true},
		{"top key holding MinInt64", 1 << 44, 1<<44 - 1, math.MinInt64, true},
		{"top key on the bound", 1 << 44, 1<<44 - 1, 1 << 17, true},
		{"top key past the bound", 1 << 44, 1<<44 - 1, -(1<<17 + 1), true},
		{"universe of one key", 1, 0, 5, true},
		{"universe of one key, key outside it", 1, 1, 5, false},
		{"universe of two keys", 2, 1, math.MaxInt64, true},
		{"empty universe", 0, 0, 1, false},
		{"universe wider than the field", math.MaxUint64, 1 << 60, -9, true},
	} {
		r := NewRecovery(rand.New(rand.NewSource(3)), 8, tc.universe)
		r.Update(tc.key, tc.count)
		if got := checkAgainstReference(t, r, &s); got != tc.sparse {
			t.Errorf("%s: decoded sparse = %v, want %v", tc.name, got, tc.sparse)
		}
	}
}

// TestInverseMatchesPowMod pins the addition chain against the generic
// exponentiation, zero and the +-1 short cuts included.
func TestInverseMatchesPowMod(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	counts := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, p61, -p61}
	for i := 0; i < 2000; i++ {
		counts = append(counts, int64(rng.Uint64()))
	}
	for _, c := range counts {
		want := nt.PowMod(fieldOf(c), nt.MersennePrime61-2, nt.MersennePrime61)
		if got := inverse(c); got != want {
			t.Fatalf("inverse(%d) = %d, want %d", c, got, want)
		}
	}
}

// plant adds (count, count*x, count*fp(x)) to x's cell in subtable t
// ONLY — what no stream can do, and what a hostile blob can.
func (r *Recovery) plant(t int, x uint64, count int64) {
	cm := fieldOf(count)
	c := &r.cells[r.bucket(t, x)]
	c.count += count
	c.keySum = nt.AddModMersenne61(c.keySum, nt.MulModMersenne61(cm, x%nt.MersennePrime61))
	c.fpSum = nt.AddModMersenne61(c.fpSum, nt.MulModMersenne61(cm, r.fp.Field(x)))
}

// TestDecodeTerminatesOnPingPong: one cell holding (k, k*x, k*fp(x)) is
// a verified singleton; peeling it makes x's two other cells verified
// singletons of (x, -k), and peeling those restores the first, for
// ever. The peel count is bounded by the cell count — not by the
// capacity, which a crafted header sets to 2^32 - 1 — so the decode
// answers DENSE after as many peels as it has cells.
func TestDecodeTerminatesOnPingPong(t *testing.T) {
	for _, capacity := range []int{1, 16, 256} {
		r := NewRecovery(rand.New(rand.NewSource(5)), capacity, 1<<32)
		r.plant(0, 12345, 7)
		before := slices.Clone(r.cells)
		var s Scratch
		start := time.Now()
		pairs, peels, err := r.peel(&s)
		if err != ErrDense || pairs != nil {
			t.Fatalf("capacity %d: decode = %v, %v; want DENSE", capacity, pairs, err)
		}
		if peels != len(r.cells) {
			t.Errorf("capacity %d: stopped after %d peels, the bound is the %d cells", capacity, peels, len(r.cells))
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("capacity %d: decode took %v", capacity, d)
		}
		if !reflect.DeepEqual(before, r.cells) {
			t.Errorf("capacity %d: decoding wrote the sketch", capacity)
		}
	}
}

// TestUnmarshalRejectsInconsistentHeader: the capacity, the subtable
// width and the cell count are the receiver's constructor's, not the
// state's, so a state must hold exactly the receiver's cells — one cell
// short or over, or a state of a capacity-17 structure filled into one
// of capacity 16, is refused.
func TestUnmarshalRejectsInconsistentHeader(t *testing.T) {
	fresh := func(capacity int) *Recovery { return NewRecovery(rand.New(rand.NewSource(5)), capacity, 1<<32) }
	r := fresh(16)
	r.Update(12345, 7)
	honest, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Fill(honest, fresh(16)); err != nil {
		t.Fatalf("honest state refused: %v", err)
	}
	wider, err := fresh(17).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(wider) == len(honest) {
		t.Fatalf("capacities 16 and 17 encode to the same %d bytes", len(honest))
	}
	cell := 1 + 16 // a count at width 1 and the two sums
	for name, frame := range map[string][]byte{
		"one cell short":     honest[:len(honest)-cell],
		"one cell over":      append(slices.Clone(honest), make([]byte, cell)...),
		"capacity 17 state":  wider,
		"capacity 17, short": wider[:len(honest)+1],
	} {
		if err := wire.Fill(frame, fresh(16)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestUnmarshalRejectsUnreducedSums: the capacity, and with it the peel
// bound and the cell count, are the constructor's; what the state can
// still get wrong is a field sum that is not reduced mod p, which the
// field adds and the decode's division test assume.
func TestUnmarshalRejectsUnreducedSums(t *testing.T) {
	fresh := func() *Recovery { return NewRecovery(rand.New(rand.NewSource(5)), 16, 1<<32) }
	r := fresh()
	r.Update(12345, 7)
	honest, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Fill(honest, fresh()); err != nil {
		t.Fatalf("honest state refused: %v", err)
	}
	sumsAt := len(honest) - len(r.cells)*16 // behind the packed counts
	patched := func(off int, v uint64) []byte {
		out := slices.Clone(honest)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}
	for name, frame := range map[string][]byte{
		"keySum == p":     patched(sumsAt, nt.MersennePrime61),
		"fpSum == 2^64-1": patched(sumsAt+8, math.MaxUint64),
	} {
		if err := wire.Fill(frame, fresh()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeIsReadOnly: decoding reads the sketch and writes only the
// caller's scratch, so goroutines holding their own scratch may decode
// one sketch at once (run under -race).
func TestDecodeIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	r := NewRecovery(rng, 64, 1<<32)
	for i := 0; i < 50; i++ {
		r.Update(uint64(rng.Int63n(1<<32)), 1+rng.Int63n(9))
	}
	dense := r.CloneInto(nil)
	for i := 0; i < 500; i++ {
		dense.Update(uint64(rng.Int63n(1<<32)), 1)
	}
	want, err := referenceDecode(r)
	if err != nil {
		t.Fatal(err)
	}
	before, denseBefore := slices.Clone(r.cells), slices.Clone(dense.cells)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Scratch
			for i := 0; i < 200; i++ {
				pairs, err := r.DecodeInto(&s)
				if err != nil || len(pairs) != len(want) {
					t.Errorf("decode = %d pairs, %v; want %d", len(pairs), err, len(want))
					return
				}
				for _, p := range pairs {
					if want[p.Key] != p.Count {
						t.Errorf("key %d decoded to %d, want %d", p.Key, p.Count, want[p.Key])
						return
					}
				}
				if _, err := dense.DecodeInto(&s); err != ErrDense {
					t.Errorf("dense sketch decoded: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(before, r.cells) || !reflect.DeepEqual(denseBefore, dense.cells) {
		t.Fatal("decoding wrote a sketch")
	}
}

// TestDecodeCounters: the decode counters are exact — one verdict per
// decode, one peel per singleton removed, wasted peels of a DENSE decode
// included.
func TestDecodeCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	sparse := NewRecovery(rng, 32, 1<<32)
	for i := 0; i < 20; i++ {
		sparse.Update(uint64(i)*977, 2)
	}
	dense := sparse.CloneInto(nil)
	for i := 0; i < 60; i++ {
		dense.Update(uint64(rng.Int63n(1<<32)), 1)
	}
	_, densePeels, err := referencePeel(dense)
	if err != ErrDense || densePeels == 0 {
		t.Fatalf("dense fixture: %d peels, %v; want a DENSE decode that peels something first", densePeels, err)
	}
	s0, d0, p0 := decodesSparse.Load(), decodesDense.Load(), peelsTotal.Load()
	var s Scratch
	for i := 0; i < 3; i++ {
		if _, err := sparse.DecodeInto(&s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := dense.DecodeInto(&s); err != ErrDense {
			t.Fatalf("dense fixture decoded: %v", err)
		}
	}
	if _, err := sparse.Decode(); err != nil { // the map adapter counts too
		t.Fatal(err)
	}
	gotS, gotD, gotP := decodesSparse.Load()-s0, decodesDense.Load()-d0, peelsTotal.Load()-p0
	if wantP := int64(4*20 + 2*densePeels); gotS != 4 || gotD != 2 || gotP != wantP {
		t.Errorf("counted %d sparse, %d dense, %d peels; want 4, 2, %d", gotS, gotD, gotP, wantP)
	}
}

// FuzzDecodeDifferential drives the decode kernel two ways. An honest
// program (mode bit clear) is Update / Merge / Sub instructions over two
// sibling sketches, three bytes each: the decode of the first must be
// the reference's — vector and verdict — and leave the cells as they
// were. A crafted program plants fuzzer-chosen (count, count*x,
// count*fp(x)) triples into single cells and overwrites others with raw
// words: no vector explains such cells, so nothing is compared, but the
// decode must return within the peel bound, not panic and not write.
func FuzzDecodeDifferential(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0, 0, 2, 1, 0, 1, 3, 1, 7, 9, 2, 0, 0, 3, 0, 0})
	f.Add(byte(1), []byte{0, 3, 12, 1, 3, 13, 0, 200, 14, 0, 0, 8})
	f.Add(byte(2), []byte{0, 0, 5, 0, 0, 5, 1, 0, 6})
	f.Add(byte(4), []byte{0, 5, 2})                   // the ping-pong: one planted cell
	f.Add(byte(5), []byte{0, 5, 2, 1, 5, 3, 2, 9, 9}) // plants in two subtables, then raw words
	f.Add(byte(7), []byte{3, 255, 255, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, mode byte, prog []byte) {
		universe := []uint64{1 << 20, 1 << 32, 1 << 44, 2}[mode&3]
		counts := straddlingCounts(universe)
		r := NewRecovery(rand.New(rand.NewSource(int64(mode>>3))), 1+int(mode>>3)%12, universe)
		var s Scratch
		if mode&4 != 0 {
			for ; len(prog) >= 3; prog = prog[3:] {
				x, count := uint64(prog[1])*(universe/251+1), counts[int(prog[2])%len(counts)]
				if sub := int(prog[0] & 3); sub < subtables {
					r.plant(sub, x, count)
				} else {
					c := &r.cells[int(prog[1])%len(r.cells)]
					c.count = count
					c.keySum = uint64(prog[2]) * 0x0101010101010101 % nt.MersennePrime61
				}
			}
			before := slices.Clone(r.cells)
			_, peels, _ := r.peel(&s)
			if peels > len(r.cells) {
				t.Fatalf("%d peels over %d cells", peels, len(r.cells))
			}
			if !reflect.DeepEqual(before, r.cells) {
				t.Fatal("decoding wrote the sketch")
			}
			return
		}
		// vec is the exact vector the two sketches stand for; a frequency
		// that left int64, or that is a nonzero multiple of p (invisible to
		// both field sums, so which cells look like singletons depends on
		// the peel order), puts the sketch outside what any decode pins.
		b := r.Sibling()
		vecs := [2]map[uint64]int64{{}, {}}
		pinned := true
		add := func(dst map[uint64]int64, x uint64, d int64) {
			old := dst[x]
			sum := old + d
			if (old > 0 && d > 0 && sum < 0) || (old < 0 && d < 0 && sum >= 0) {
				pinned = false
			}
			if dst[x] = sum; sum == 0 {
				delete(dst, x)
			}
		}
		for ; len(prog) >= 3; prog = prog[3:] {
			x, d := uint64(prog[1])*(universe/251+1), counts[int(prog[2])%len(counts)]
			switch prog[0] & 3 {
			case 0:
				r.Update(x, d)
				add(vecs[0], x, d)
			case 1:
				b.Update(x, d)
				add(vecs[1], x, d)
			case 2:
				if err := r.Merge(b); err != nil {
					t.Fatal(err)
				}
				for k, v := range vecs[1] {
					add(vecs[0], k, v)
				}
			case 3:
				r.Sub(b)
				for k, v := range vecs[1] {
					if v == math.MinInt64 {
						pinned = false
					}
					add(vecs[0], k, -v)
				}
			}
		}
		for _, v := range vecs[0] {
			if v%p61 == 0 {
				pinned = false
			}
		}
		if !pinned {
			before := slices.Clone(r.cells)
			if _, peels, _ := r.peel(&s); peels > len(r.cells) {
				t.Fatalf("%d peels over %d cells", peels, len(r.cells))
			}
			if !reflect.DeepEqual(before, r.cells) {
				t.Fatal("decoding wrote the sketch")
			}
			return
		}
		if checkAgainstReference(t, r, &s) {
			// A sparse verdict is also the truth: the vector the program built.
			if got, _ := r.Decode(); !reflect.DeepEqual(got, vecs[0]) {
				t.Fatalf("decoded %v, the program built %v", got, vecs[0])
			}
		}
	})
}

// decodeFixture builds the benchmark's level shape (capacity 256, 615
// cells) holding keys distinct keys, each fed as `units` unit deltas.
func decodeFixture(keys, units int) *Recovery {
	rng := rand.New(rand.NewSource(14))
	r := NewRecovery(rng, 256, 1<<32)
	for i := 0; i < keys; i++ {
		x := uint64(rng.Int63n(1 << 32))
		for u := 0; u < units; u++ {
			r.Update(x, 1)
		}
	}
	return r
}

// BenchmarkDecode pins one regime per sub-benchmark and asserts its
// verdict: a quarter-full level, a level holding exactly its capacity,
// and a level eight times over it whose cells each hold about ten unit
// deltas — non-unit counts that no peel ever removes, which is where a
// windowed sampler's upper levels sit and what an always-decodable
// fixture cannot show. The scratch is reused, so the steady state must
// read 0 allocs/op.
func BenchmarkDecode(b *testing.B) {
	for _, bc := range []struct {
		name   string
		r      *Recovery
		sparse bool
	}{
		{"sparse", decodeFixture(64, 3), true},
		{"borderline", decodeFixture(256, 3), true},
		{"dense", decodeFixture(2048, 1), false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.r.DecodeInto(&s); (err == nil) != bc.sparse {
					b.Fatalf("verdict %v, want sparse = %v", err, bc.sparse)
				}
			}
		})
	}
}
