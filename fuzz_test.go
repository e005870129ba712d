package bounded

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/csss"
	"repro/internal/topk"
	"repro/internal/wire/wiretest"
)

// stateAt returns the offset of the state inside an envelope: the
// fixed header it follows is the same for every kind.
func stateAt(tb testing.TB, data []byte) int {
	env, err := parseEnvelope(data, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return len(data) - len(env.payload)
}

// cssPastBoundary rewrites the CSSampSim sketch inside a strict
// HeavyHitters encoding — its state follows the exact L1 scale's two
// words — so its position sits on the halving boundary its exponent
// implies (t = S*2^(p+1)+1, here p = 0): a sampling clock no ingest can
// produce, which UnmarshalBinary must refuse.
func cssPastBoundary(tb testing.TB, cfg Config, data []byte) []byte {
	out := append([]byte(nil), data...)
	budget := csss.RecommendedS(cfg.Alpha, cfg.Eps, cfg.N)
	binary.LittleEndian.PutUint64(out[stateAt(tb, data)+16:], uint64(2*budget+1))
	return out
}

// roughLevelOutOfRange sets level 63 in the last bitmap of the RoughF0
// whose state starts at offset at of a marshalled structure's state
// (its best word, then 16 bitmaps). Field values stay below 2^61, so no
// ingest sets a level above 60 and the median select indexes by it:
// UnmarshalBinary must refuse the blob.
func roughLevelOutOfRange(tb testing.TB, data []byte, at int) []byte {
	out := append([]byte(nil), data...)
	out[stateAt(tb, data)+at+8+8*16-1] |= 0x80
	return out
}

// l1LevelList returns the offset of the level count inside a strict
// (Morris-clock) L1Estimator's encoding: the state opens with the Morris
// (v, max), maxCount and units; then u32 count, then per level u32
// index, i64 c+, i64 c-.
func l1LevelList(tb testing.TB, data []byte) int { return stateAt(tb, data) + 2 + 8 + 8 }

// craftedL1Windows are three level lists no ingest produces but the
// decoder admits, because the first update re-syncs the window: a level
// at the top index 62, an empty list at a large position, and two
// non-adjacent levels.
func craftedL1Windows(f *testing.F, cfg Config) [][]byte {
	blob := func(units int64) ([]byte, int) {
		e := must(NewL1Estimator(cfg))
		if units > 0 {
			e.Update(3, units)
		}
		data := must(e.MarshalBinary())
		return data, l1LevelList(f, data)
	}
	top, at := blob(2)
	binary.LittleEndian.PutUint32(top[at+4:], 62)
	empty, at := blob(0)
	if binary.LittleEndian.Uint32(empty[at:]) != 0 {
		f.Fatal("a fresh estimator already lists levels")
	}
	empty[at-18], empty[at-17] = 40, 40 // Morris exponent and its peak: t = 2^40 - 1
	apart, at := blob(1 << 30)
	if binary.LittleEndian.Uint32(apart[at:]) != 2 {
		f.Fatal("2^30 units left the estimator with other than two live levels")
	}
	binary.LittleEndian.PutUint32(apart[at+4+20:], 37)
	out := [][]byte{top, empty, apart}
	for i, data := range out {
		s, err := UnmarshalSketch(data)
		if err != nil {
			f.Fatalf("crafted window %d refused: %v", i, err)
		}
		s.Update(1, 1)
		if again := must(UnmarshalSketch(must(s.MarshalBinary()))); again.(*L1Estimator).impl.(strictL1).LiveLevels() > 2 {
			f.Fatalf("crafted window %d still holds %d levels after an update", i, again.(*L1Estimator).impl.(strictL1).LiveLevels())
		}
	}
	return out
}

// pingPongFrames crafts two sync sketches around one planted cell:
// (k, k*x, k*fp(x)) in x's subtable-0 cell and nothing in its other two
// cells, which no stream produces. Peeling the cell makes the other two
// verified singletons of (x, -k), and peeling those restores it. held
// carries it at the honest capacity; tiny carries the same few hundred
// bytes under an options echo of capacity 2^22 — where a peel bound
// sized by the capacity once let the trade run for seconds — whose
// state is three orders of magnitude longer, so it is refused unread.
func pingPongFrames(f *testing.F, cfg Config) (tiny, held []byte) {
	s := must(NewSyncSketch(cfg, WithCapacity(16)))
	s.Update(5, 3)
	held = must(s.MarshalBinary())
	// The state: maxCount, the count column (widths 1/1: its widths
	// byte, then a byte a cell), then each cell's two field sums.
	countsAt := stateAt(f, held) + 9
	if held[countsAt-1] != 0x11 {
		f.Fatalf("a sync sketch holding 3 packs at widths % x, want 11", held[countsAt-1])
	}
	cells := (len(held) - countsAt) / 17
	per, sumsAt := cells/3, countsAt+cells
	if bytes.Equal(held[countsAt:countsAt+per], make([]byte, per)) {
		f.Fatal("no nonzero cell in subtable 0")
	}
	clear(held[countsAt+per : sumsAt])
	clear(held[sumsAt+per*16:])
	tiny = append([]byte(nil), held...)
	// The capacity echo is the last word of the header.
	binary.LittleEndian.PutUint32(tiny[stateAt(f, tiny)-4:], 1<<22)
	return tiny, held
}

// hhTableAt is the offset of a strict heavy-hitters blob's table
// column: behind the exact L1 scale's two words and the CSSS clock and
// maxCount.
func hhTableAt(tb testing.TB, hh []byte) int { return stateAt(tb, hh) + 16 + 20 }

// packedWidths returns blobs whose count columns reach widths 1, 3 and
// 8 — sync sketches whose widest count's zigzag needs that many bytes,
// the two wider ones patched into a byte-wide column — a heavy-hitters
// table whose few heavy counters are patched into a byte-wide column,
// and four the reader must refuse: a fresh (all-zero) heavy-hitters
// table at widths 0/1, 1/9 and 3/3, and at widths 1/8 with one patch
// that sets a counter's sign bit.
func packedWidths(tb testing.TB, cfg Config) [][]byte {
	var out [][]byte
	for _, c := range []struct {
		high  byte
		count int64
	}{{1, 2}, {3, 1 << 20}, {8, -1 << 60}} {
		s := must(NewSyncSketch(cfg, WithCapacity(16)))
		s.Update(3, c.count)
		data := must(s.MarshalBinary())
		if got := data[stateAt(tb, data)+8]; got != c.high<<4|1 {
			tb.Fatalf("a sync sketch holding %d packs at widths % x, want %x1", c.count, got, c.high)
		}
		out = append(out, data)
	}
	wide := must(NewHeavyHitters(cfg))
	for i := range uint64(200) {
		wide.Update(i, 3)
	}
	wide.Update(5, 1<<20)
	wide.Update(9, 700)
	data := must(wide.MarshalBinary())
	if got := data[hhTableAt(tb, data)]; got&15 != 1 || got>>4 < 2 {
		tb.Fatalf("a heavy-hitters table with a few heavy counters packs at widths % x, want a patched byte column", got)
	}
	out = append(out, data)

	hh := must(must(NewHeavyHitters(cfg)).MarshalBinary())
	at := hhTableAt(tb, hh)
	entries := hhParams(cfg, echo{}).StateLen() - 16 - 21 - topk.MinLen
	if hh[at] != 0x11 {
		tb.Fatalf("a fresh heavy-hitters table packs at widths % x, want 11", hh[at])
	}
	tracker := hh[at+1+entries:]
	repacked := func(widths byte, column []byte) []byte {
		data := append(hh[:at:at], widths)
		return append(append(data, column...), tracker...)
	}
	// One counter's high bytes set its sign bit: patch entry 0, whose
	// seven high bytes end in 0x80.
	sign := binary.LittleEndian.AppendUint32(nil, 1)
	sign = append(sign, make([]byte, entries)...)
	sign = binary.LittleEndian.AppendUint32(sign, 0)
	sign = append(sign, 0, 0, 0, 0, 0, 0, 0x80)
	for _, data := range [][]byte{
		repacked(0x10, make([]byte, entries)),
		repacked(0x91, make([]byte, entries)),
		repacked(0x33, make([]byte, 3*entries)),
		repacked(0x81, sign),
	} {
		if _, err := UnmarshalSketch(data); err == nil {
			tb.Fatalf("accepted a heavy-hitters table at widths % x", data[at])
		}
		out = append(out, data)
	}
	return out
}

// FuzzUnmarshal drives arbitrary bytes through every deserialization
// entry point. The contract under fuzzing: corrupt, truncated,
// bit-flipped or wrong-version payloads return errors — they never
// panic, never allocate more than a constant times the input's own size
// (a state shorter than its echoed shape's dense part is refused before
// the constructor runs, and the wire reader refuses counts exceeding
// the remaining bytes), and never install half-initialized state (a
// failed UnmarshalBinary leaves the receiver untouched, which the
// post-failure Update exercises).
func FuzzUnmarshal(f *testing.F) {
	// Seed the corpus with one valid payload per structure, plus
	// adversarial fragments.
	cfg := Config{N: 1 << 10, Eps: 0.1, Alpha: 2, Seed: 9}
	seed := func(s Sketch, err error) {
		if err != nil {
			f.Fatal(err)
		}
		s.Update(3, 2)
		s.Update(7, -1)
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A truncated and a version-flipped variant per structure.
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[2] ^= 0xFF
		f.Add(flipped)
	}
	seed(NewHeavyHitters(cfg))
	seed(NewHeavyHitters(cfg, WithStrict(false)))
	// One payload ingest cannot produce: a CSSampSim position sitting on
	// its own halving boundary. Decoding must refuse it.
	hhData, err := must(NewHeavyHitters(cfg)).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bad := cssPastBoundary(f, cfg, hhData)
	if _, err := UnmarshalSketch(bad); err == nil {
		f.Fatal("accepted a CSSampSim position on its halving boundary")
	}
	f.Add(bad)
	seed(NewL1Estimator(cfg))
	seed(NewL1Estimator(cfg, WithStrict(false)))
	for _, data := range craftedL1Windows(f, cfg) {
		f.Add(data)
	}
	seed(NewL0Estimator(cfg))
	seed(NewL1Sampler(Config{N: 1 << 10, Eps: 0.25, Alpha: 2, Seed: 9}, WithCopies(2)))
	seed(NewSupportSampler(cfg, WithK(4)))
	// Another: a rough-F0 bitmap with a level no hash value reaches. Both
	// windowed structures nest one: the support sampler's state opens
	// with it, the L0 estimator's follows the peak and the single row's
	// 2K bins (K = 100 at eps 0.1).
	for at, s := range map[int]Sketch{4 + 16*100: must(NewL0Estimator(cfg)), 0: must(NewSupportSampler(cfg, WithK(4)))} {
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		bad := roughLevelOutOfRange(f, data, at)
		if _, err := UnmarshalSketch(bad); err == nil {
			f.Fatal("accepted a RoughF0 level out of range")
		}
		f.Add(bad)
	}
	seed(NewInnerProduct(cfg))
	seed(NewL2HeavyHitters(cfg))
	// Wire values that once sized an allocation: a candidate list longer
	// than the tracker retains (a fresh structure's tracker count is the
	// last word of its state), a short blob whose echo names a shape of
	// 1.6 GB, and an eps naming a Count-Sketch of 2^40 columns.
	many := append([]byte(nil), hhData...)
	binary.LittleEndian.PutUint32(many[len(many)-topk.MinLen:], 1<<22)
	for name, bad := range map[string][]byte{
		"tracker entry count 2^22": many,
		"huge shape":               hugeShapeBlob(f),
		"Count-Sketch of 2^40 columns": countSketchColsCrafted(
			must(must(NewL2HeavyHitters(cfg)).MarshalBinary()), math.SmallestNonzeroFloat64),
	} {
		if _, err := UnmarshalSketch(bad); err == nil {
			f.Fatalf("accepted a %s", name)
		}
		f.Add(bad)
	}
	seed(NewSyncSketch(cfg, WithCapacity(16)))
	tiny, held := pingPongFrames(f, cfg)
	var syn SyncSketch
	if err := syn.UnmarshalBinary(tiny); err == nil {
		f.Fatal("accepted a sync sketch state far shorter than its capacity echo calls for")
	}
	if err := syn.UnmarshalBinary(held); err != nil {
		f.Fatalf("planted cell at honest dimensions refused: %v", err)
	}
	if _, err := syn.Decode(); err != ErrDense {
		f.Fatalf("planted cell decoded: %v", err)
	}
	f.Add(tiny)
	f.Add(held)
	f.Add([]byte{})
	f.Add([]byte{'B', 'D'})
	f.Add([]byte{'B', 'D', 1, 1, 0, 0, 0})
	// A bare state, without the envelope: refused.
	bare := must(must(NewSyncSketch(cfg, WithCapacity(16))).MarshalBinary())
	f.Add(bare[stateAt(f, bare):])
	// Count columns reaching widths 1, 3 and 8, a heavy-hitters table
	// with wide counters patched in, and the columns a reader refuses:
	// widths 0 and 9, a low width no shorter than one, and a CSSS
	// counter patched past its sign bit.
	for _, data := range packedWidths(f, cfg) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The generic dispatcher, allocating O(len(data)) whatever the
		// echo names.
		wiretest.CheckBoundedDecode(t, data, func(b []byte) error { _, err := UnmarshalSketch(b); return err })
		if s, err := UnmarshalSketch(data); err == nil {
			// A successfully restored sketch must be usable, per item and
			// through the columnar run splitter.
			s.Update(1, 1)
			s.UpdateBatch([]Update{{Index: 2, Delta: 1}, {Index: 3, Delta: -1}, {Index: 2, Delta: 4}})
			if _, err := s.MarshalBinary(); err != nil {
				t.Errorf("restored sketch failed to re-marshal: %v", err)
			}
		}
		// Every typed receiver. A failed restore must leave the zero
		// value intact (the subsequent UnmarshalBinary of a valid payload
		// checks nothing leaked).
		var hh HeavyHitters
		_ = hh.UnmarshalBinary(data)
		var l1e L1Estimator
		_ = l1e.UnmarshalBinary(data)
		var l0e L0Estimator
		_ = l0e.UnmarshalBinary(data)
		var smp L1Sampler
		_ = smp.UnmarshalBinary(data)
		var sup SupportSampler
		_ = sup.UnmarshalBinary(data)
		var ip InnerProduct
		_ = ip.UnmarshalBinary(data)
		var l2 L2HeavyHitters
		_ = l2.UnmarshalBinary(data)
		var syn SyncSketch
		if err := syn.UnmarshalBinary(data); err == nil {
			_, _ = syn.Decode() // the cells as sent, then their difference with themselves
			_ = syn.SubRemote(data)
			_, _ = syn.Decode()
		}
		if _, err := SketchKind(data); err == nil && len(data) < 4 {
			t.Error("SketchKind accepted a short payload")
		}
	})
}
