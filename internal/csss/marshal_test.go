package csss

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/nt"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// TestSketchMarshalAfterHalving: a sketch that has left the rate-1
// regime round-trips its sampling clock (the rederived halving boundary
// must match).
func TestSketchMarshalAfterHalving(t *testing.T) {
	params := Params{Rows: 5, K: 8, S: 1 << 8}
	sk := New(rand.New(rand.NewSource(5)), params)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		sk.Update(uint64(rng.Intn(256)), 1)
	}
	if sk.SampleExponent() == 0 {
		t.Fatal("workload did not force a halving")
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, New(rand.New(rand.NewSource(5)), params), data)
	if restored.p != sk.p || restored.nextHalf != sk.nextHalf || restored.scale != sk.scale || restored.estScale != sk.estScale {
		t.Fatalf("sampling clock mismatch: restored p=%d nextHalf=%d scale=%v, original p=%d nextHalf=%d scale=%v",
			restored.p, restored.nextHalf, restored.scale, sk.p, sk.nextHalf, sk.scale)
	}
	for i := uint64(0); i < 256; i++ {
		if restored.Query(i) != sk.Query(i) {
			t.Fatalf("query %d differs after round trip", i)
		}
	}
}

func TestTailEstimatorMarshalRoundTrip(t *testing.T) {
	params := Params{Rows: 5, K: 8, S: 1 << 16, FixedPointBits: 4}
	te := NewTailEstimator(rand.New(rand.NewSource(3)), params)
	for i := uint64(0); i < 300; i++ {
		te.UpdateWeighted(i, int64(i%5)-2, 1.5)
	}
	data, err := te.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, NewTailEstimator(rand.New(rand.NewSource(3)), params), data)
	cands := []uint64{1, 2, 3, 4, 5}
	v1, _ := te.Estimate(cands, 100, 0.01)
	v2, _ := restored.Estimate(cands, 100, 0.01)
	if v1 != v2 {
		t.Fatalf("tail estimate differs: %v vs %v", v1, v2)
	}
}

func TestSketchUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func() *Sketch { return New(rand.New(rand.NewSource(9)), Params{Rows: 3, K: 4, S: 64}) }
	sk := fresh()
	sk.Update(1, 5)
	data, _ := sk.MarshalBinary()
	if err := wire.Fill(nil, fresh()); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-5], fresh()); err == nil {
		t.Error("accepted truncated payload")
	}
	if err := wire.Fill(append(data, 0), fresh()); err == nil {
		t.Error("accepted a trailing byte")
	}
	for _, widths := range []byte{0x10, 0x91} {
		bad := append([]byte(nil), data...)
		bad[widthsAt] = widths
		if err := wire.Fill(bad, fresh()); err == nil || !strings.Contains(err.Error(), "widths") {
			t.Errorf("widths % x: err = %v", widths, err)
		}
	}
	// The same table a word a counter: well framed, but not what its
	// counters encode to.
	wide := append(data[:widthsAt:widthsAt], 0x88)
	for _, v := range sk.counters() {
		wide = binary.LittleEndian.AppendUint64(wide, v)
	}
	if err := wire.Fill(wide, fresh()); err == nil || !strings.Contains(err.Error(), "call for") {
		t.Errorf("the table at widths 8/8: err = %v", err)
	}
}

// TestSketchRefusesPatchedSignBit: a counter past MaxInt64 is refused
// whatever the column's low width. A byte-wide column whose one patch
// carries seven high bytes ending in 0x80 is a well-formed column (the
// layout its values call for) holding a counter with its sign bit set:
// a check that looks for the sign bit only in an 8-byte-wide column
// accepts it.
func TestSketchRefusesPatchedSignBit(t *testing.T) {
	params := Params{Rows: 3, K: 4, S: 64}
	fresh := func() *Sketch { return New(rand.New(rand.NewSource(9)), params) }
	data := wiretest.MustMarshal(t, fresh())
	n := 2 * len(fresh().table)
	crafted := append(data[:widthsAt:widthsAt], 0x81)
	crafted = binary.LittleEndian.AppendUint32(crafted, 1) // one patch
	crafted = append(crafted, make([]byte, n)...)          // every low byte 0
	crafted = binary.LittleEndian.AppendUint32(crafted, 3) // at entry 3
	crafted = append(crafted, 0, 0, 0, 0, 0, 0, 0x80)      // 1<<63
	if l := wire.LayoutOf(append(make([]uint64, n-1), 1<<63)); l.Len() != len(crafted)-widthsAt {
		t.Fatalf("the crafted column is %d bytes, its values lay out in %d", len(crafted)-widthsAt, l.Len())
	}
	if err := wire.Fill(crafted, fresh()); err == nil || !strings.Contains(err.Error(), "negative sampled counter") {
		t.Fatalf("a counter patched past its sign bit: err = %v", err)
	}
	crafted[len(crafted)-1] = 0x40 // 1<<62: a counter, not a sign
	if err := wire.Fill(crafted, fresh()); err != nil {
		t.Fatalf("a counter patched to 1<<62: %v", err)
	}
}

// TestSketchPacksAtEveryByteBoundary: the table's high width is that of
// its largest counter — on each side of every byte boundary, with that
// counter last, where the column's tail is written a byte at a time —
// its length is the layout its counters call for, and it round trips.
func TestSketchPacksAtEveryByteBoundary(t *testing.T) {
	params := Params{Rows: 3, K: 4, S: 64}
	rng := rand.New(rand.NewSource(3))
	for _, max := range []int64{0, 255, 256, 65535, 65536, 1<<56 - 1, 1 << 56, math.MaxInt64} {
		sk := New(rand.New(rand.NewSource(9)), params)
		for c := range sk.table {
			sk.table[c] = cell{rng.Int63n(max/2 + 1), rng.Int63n(max/2 + 1)}
		}
		sk.table[len(sk.table)-1][1] = max
		data := wiretest.MustMarshal(t, sk)
		l := wire.LayoutOf(sk.counters())
		if high := wire.ByteWidth(uint64(max)); int(data[widthsAt]>>4) != high || len(data) != widthsAt+l.Len() {
			t.Fatalf("max %d: %d bytes at widths % x, want high width %d in %d bytes", max, len(data), data[widthsAt], high, widthsAt+l.Len())
		}
		restored := wiretest.Restore(t, New(rand.New(rand.NewSource(9)), params), data)
		if !slices.Equal(restored.table, sk.table) {
			t.Fatalf("max %d: the table did not round trip", max)
		}
	}
}

// TestSketchWireTracksSpaceBits: after a stream, at rate 1 and past
// several halvings, the table is at most 2·cells·ByteWidth(max) bytes
// behind its widths byte and patch count for its largest current
// counter — so at most the 2·cells counters at BitsFor(maxCount) bits
// that SpaceBits charges plus 7 bits each — and the few wide counters
// are patched into a narrower column where that is shorter.
func TestSketchWireTracksSpaceBits(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.2, Seed: 8})
	for _, budget := range []int64{1 << 20, 1 << 10} {
		sk := New(rand.New(rand.NewSource(17)), Params{Rows: 5, K: 16, S: budget})
		feedColumns(sk, s.Updates)
		if (sk.p == 0) != (budget == 1<<20) {
			t.Fatalf("S=%d: the stream left the sketch at p=%d", budget, sk.p)
		}
		var max int64
		for _, c := range sk.table {
			max = slices.Max([]int64{max, c[0], c[1]})
		}
		data := wiretest.MustMarshal(t, sk)
		table := len(data) - widthsAt - 1
		if data[widthsAt]&15 < data[widthsAt]>>4 {
			table -= 4 // the patch count
		}
		if most := 2 * len(sk.table) * wire.ByteWidth(uint64(max)); table > most {
			t.Errorf("S=%d: the table is %d bytes, more than 2·%d cells at the width of %d: %d", budget, table, len(sk.table), max, most)
		}
		charged := sk.SpaceBits() - sk.buckets.SpaceBits() - int64(nt.BitsFor(uint64(sk.t))+nt.BitsFor(uint64(sk.p)))
		if slack := int64(8*table) - charged; slack > 7*2*int64(len(sk.table)) {
			t.Errorf("S=%d at p=%d: %d table bits against the %d SpaceBits charges the counters", budget, sk.p, 8*table, charged)
		}
		t.Logf("S=%d at p=%d: table widths % x, %d bytes, %d bits charged", budget, sk.p, data[widthsAt], table, charged)
	}
}

// widthsAt is the offset of the table's widths byte in a Sketch's
// state: behind t, p and maxCount.
const widthsAt = 20

// TestSketchUnmarshalRejectsPositionPastBoundary: exponent p implies
// the next halving boundary S*2^(p+1)+1, and no sequence of
// Update/Merge/Clone leaves t at or past it. A payload that claims so
// is a bad sampling clock — and the one input that would hand the run
// splitter negative room. The largest legal position still decodes, and
// the tail estimator inherits the check from its two instances.
func TestSketchUnmarshalRejectsPositionPastBoundary(t *testing.T) {
	params := Params{Rows: 3, K: 4, S: 64}
	sk := New(rand.New(rand.NewSource(9)), params)
	for i := 0; i < 300; i++ { // past 2S+1 = 129 and 4S+1 = 257
		sk.Update(uint64(i%11), 1)
	}
	if sk.p != 2 || sk.nextHalf != 513 {
		t.Fatalf("fixture at p=%d nextHalf=%d, want 2 and 513", sk.p, sk.nextHalf)
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const off = 0 // the position field t opens a Sketch's state
	if got := int64(binary.LittleEndian.Uint64(data[off:])); got != sk.t {
		t.Fatalf("position field reads %d, sketch is at %d", got, sk.t)
	}
	patched := func(pos int64) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(out[off:], uint64(pos))
		return out
	}
	for _, pos := range []int64{sk.nextHalf, sk.nextHalf + 1, 1 << 40} {
		err := wire.Fill(patched(pos), New(rand.New(rand.NewSource(9)), params))
		if err == nil || !strings.Contains(err.Error(), "sampling clock") {
			t.Errorf("position %d with boundary %d: err = %v, want a bad sampling clock", pos, sk.nextHalf, err)
		}
	}
	last := New(rand.New(rand.NewSource(9)), params)
	if err := wire.Fill(patched(sk.nextHalf-1), last); err != nil {
		t.Fatalf("position one short of the boundary rejected: %v", err)
	}
	feedColumns(last, []stream.Update{{Index: 1, Delta: 1}, {Index: 2, Delta: 1}})
	if last.p != 3 || last.t != sk.nextHalf+1 {
		t.Fatalf("after two units from the brink: p=%d t=%d, want 3 and %d", last.p, last.t, sk.nextHalf+1)
	}

	te := NewTailEstimator(rand.New(rand.NewSource(3)), params)
	te.Update(5, 2)
	blob, err := te.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// CS1's state opens the blob; patch its position.
	binary.LittleEndian.PutUint64(blob, uint64(2*params.S+1))
	if err := wire.Fill(blob, NewTailEstimator(rand.New(rand.NewSource(3)), params)); err == nil {
		t.Error("tail estimator accepted an instance past its halving boundary")
	}
}

// TestAppendBinaryMatchesMarshalBinary: the sketch and the tail
// estimator obey the wire nesting rule, state their lengths exactly and
// so pay for one buffer.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.2, Seed: 8})
	sk := New(rand.New(rand.NewSource(17)), Params{Rows: 5, K: 64, S: 1 << 12})
	feedColumns(sk, s.Updates)
	te := NewTailEstimator(rand.New(rand.NewSource(3)), Params{Rows: 5, K: 32, S: 1 << 16, FixedPointBits: 4})
	for i := uint64(0); i < 300; i++ {
		te.UpdateWeighted(i, int64(i%5)-2, 1.5)
	}
	for _, m := range []wiretest.Codec{sk, te} {
		wiretest.CheckAppend(t, m)
		wiretest.CheckGrowsOnce(t, m)
	}
}

// TestCopiesSeedTheirGeneratorLazily: a CloneInto or UnmarshalBinary of
// a sketch past 2S builds no generator until the copy draws, and then
// the one it was seeded with — halving and updating a copy seeded late
// and one seeded at once leave equal bytes.
func TestCopiesSeedTheirGeneratorLazily(t *testing.T) {
	build := func() *Sketch {
		s := New(rand.New(rand.NewSource(5)), Params{Rows: 5, K: 8, S: 64})
		for i := 0; i < 1000; i++ {
			s.Update(uint64(i%61), 1)
		}
		return s
	}
	blob := wiretest.MustMarshal(t, build())
	restore := func() *Sketch {
		return wiretest.Restore(t, New(rand.New(rand.NewSource(5)), Params{Rows: 5, K: 8, S: 64}), blob)
	}
	seed := func(s *Sketch) { s.rng.Get() }
	work := func(s *Sketch) {
		s.halveOnce()
		for i := 0; i < 500; i++ {
			s.Update(uint64(i%61), 1)
		}
	}
	// A generator built at once from the word a copy drew: the source's
	// next, or the payload's hash.
	seedWith := func(w int64) func(*Sketch) {
		return func(s *Sketch) { *s.rng = *sample.Wrap(rand.New(rand.NewSource(w))) }
	}
	wiretest.CheckLazySeeding(t, "CloneInto", func() *Sketch { return build().CloneInto(nil) }, seed, seedWith(build().rng.Get().Int63()), work)
	wiretest.CheckLazySeeding(t, "UnmarshalBinary", restore, seed, seedWith(wire.Seed(blob)), work)
}
