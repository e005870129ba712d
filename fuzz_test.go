package bounded

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// cssPastBoundary rewrites the first CSSampSim sketch nested in a
// marshalled structure so its position sits on the halving boundary
// its exponent implies (t = S*2^(p+1)+1, here p = 0) — a sampling
// clock no ingest can produce, which UnmarshalBinary must refuse.
func cssPastBoundary(data []byte) []byte {
	at := bytes.Index(data, []byte{'X', 'S', 1})
	if at < 0 {
		return nil
	}
	out := append([]byte(nil), data...)
	sk := out[at:]
	const params = 3 + 4 + 4 + 8 + 4 // magic+version, rows, K, S, fixed-point bits
	budget := binary.LittleEndian.Uint64(sk[3+4+4:])
	pos := params + 4 + int(binary.LittleEndian.Uint32(sk[params:])) // past the length-prefixed hash wiring
	binary.LittleEndian.PutUint64(sk[pos:], 2*budget+1)
	return out
}

// roughLevelOutOfRange sets level 63 in the last bitmap of the first
// RoughF0 nested in a marshalled structure. Field values stay below
// 2^61, so no ingest sets a level above 60 and the median select
// indexes by it: UnmarshalBinary must refuse the blob.
func roughLevelOutOfRange(data []byte) []byte {
	at := bytes.Index(data, []byte{'0', 'F', 1})
	if at < 4 {
		return nil
	}
	out := append([]byte(nil), data...)
	end := at + int(binary.LittleEndian.Uint32(out[at-4:])) // nested blobs are length-prefixed
	out[end-1] |= 0x80
	return out
}

// countSketchColsWrapped adds 2^61 to the column count of the first
// Count-Sketch nested in a marshalled structure — in its "CS" header and
// in the "HB" hash wiring the header is checked against — so that
// rows * cols * 8 wraps back to the honest table length.
// UnmarshalBinary must refuse the blob without sizing anything by it.
func countSketchColsWrapped(data []byte) []byte {
	const csHeader = 34 // magic, rows, cols, maxAbs, mass, wiring length
	hb := bytes.Index(data, []byte{'H', 'B', 2})
	if hb < csHeader || data[hb-csHeader] != 'C' || data[hb-csHeader+1] != 'S' {
		return nil
	}
	out := append([]byte(nil), data...)
	for _, at := range []int{hb - csHeader + 6, hb + 7} {
		binary.LittleEndian.PutUint64(out[at:], binary.LittleEndian.Uint64(out[at:])+1<<61)
	}
	return out
}

// trackerCapacity rewrites the capacity of the first candidate tracker
// nested in a marshalled structure. A tracker's tables are sized by its
// capacity, not by the entries the blob carries, and every owner can
// derive the capacity from its own parameters: UnmarshalBinary must
// refuse any other before allocating.
func trackerCapacity(data []byte, capacity uint32) []byte {
	at := bytes.Index(data, []byte{'T', 'K', 1})
	if at < 0 {
		return nil
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[at+3:], capacity)
	return out
}

// l1LevelList returns the offset of the level count inside the strict
// (Morris-clock) Figure 4 estimator nested in a marshalled L1Estimator:
// u32 count, then per level u32 index, i64 c+, i64 c-.
func l1LevelList(data []byte) int {
	at := bytes.Index(data, []byte{'L', '1', 1})
	if at < 0 {
		return -1
	}
	return at + 3 + 8 + 1 + 2 + 8 + 8 // magic+version, base, clock tag, Morris (v, max), peak, units
}

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
		at := l1LevelList(data)
		if at < 0 {
			f.Fatal("no Figure 4 estimator inside an L1Estimator encoding")
		}
		return data, at
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
		if again := must(UnmarshalSketch(must(s.MarshalBinary()))); again.(*L1Estimator).strict.LiveLevels() > 2 {
			f.Fatalf("crafted window %d still holds %d levels after an update", i, again.(*L1Estimator).strict.LiveLevels())
		}
	}
	return out
}

// rawFrame appends its bytes as they are, so appendEnvelope can wrap a
// crafted payload.
type rawFrame []byte

func (r rawFrame) AppendBinary(dst []byte) ([]byte, error) { return append(dst, r...), nil }

// pingPongFrames crafts two sync sketches around one planted cell:
// (k, k*x, k*fp(x)) in x's subtable-0 cell and nothing in its other two
// cells, which no stream produces. Peeling the cell makes the other two
// verified singletons of (x, -k), and peeling those restores it. tiny
// carries it under a header no constructor writes — one cell per
// subtable, capacity 2^22 — where the old capacity-sized peel guard let
// the trade run for seconds (minutes at 2^32-1); held keeps the honest
// dimensions. Both are "SR" frames in the "BD" envelope.
func pingPongFrames(f *testing.F, cfg Config) (tiny, held []byte) {
	s := must(NewSyncSketch(cfg, WithCapacity(16)))
	s.Update(5, 3)
	frame, err := syncPayload(must(s.MarshalBinary()))
	if err != nil {
		f.Fatal(err)
	}
	const cellBytes = 24
	per := int(binary.LittleEndian.Uint32(frame[14:])) // after magic, capacity, universe
	cellsAt := len(frame) - 3*per*cellBytes
	var one []byte
	for c := frame[cellsAt : cellsAt+per*cellBytes]; len(c) > 0; c = c[cellBytes:] {
		if !bytes.Equal(c[:cellBytes], make([]byte, cellBytes)) {
			one = c[:cellBytes]
		}
	}
	if one == nil {
		f.Fatal("no nonzero cell in subtable 0")
	}
	held = append([]byte(nil), frame...)
	clear(held[cellsAt+per*cellBytes:])
	tiny = append([]byte(nil), frame[:cellsAt]...)
	binary.LittleEndian.PutUint32(tiny[2:], 1<<22)
	binary.LittleEndian.PutUint32(tiny[14:], 1)
	tiny = append(append(tiny, one...), make([]byte, 2*cellBytes)...)
	wrap := func(frame []byte) []byte {
		return must(appendEnvelope(nil, KindSyncSketch, cfg, sketchOptions{capacity: 16}, rawFrame(frame)))
	}
	return wrap(tiny), wrap(held)
}

// FuzzUnmarshal drives arbitrary bytes through every deserialization
// entry point. The contract under fuzzing: corrupt, truncated,
// bit-flipped or wrong-version payloads return errors — they never
// panic, never allocate beyond the input's own size (the wire reader
// refuses length prefixes exceeding the remaining bytes), and never
// install half-initialized state (a failed UnmarshalBinary leaves the
// receiver untouched, which the post-failure Update exercises).
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
	bad := cssPastBoundary(hhData)
	if bad == nil {
		f.Fatal("no CSSampSim payload inside a HeavyHitters encoding")
	}
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
	// Another: a rough-F0 bitmap with a level no hash value reaches. All
	// three windowed structures nest one.
	for _, s := range []Sketch{must(NewL0Estimator(cfg)), must(NewSupportSampler(cfg, WithK(4)))} {
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		bad := roughLevelOutOfRange(data)
		if bad == nil {
			f.Fatal("no RoughF0 payload inside a windowed structure's encoding")
		}
		if _, err := UnmarshalSketch(bad); err == nil {
			f.Fatal("accepted a RoughF0 level out of range")
		}
		f.Add(bad)
	}
	seed(NewInnerProduct(cfg))
	// A row count the payload cannot hold must be refused before it sizes
	// an allocation.
	ipData := must(must(NewInnerProduct(cfg)).MarshalBinary())
	rows := bytes.Index(ipData, []byte{'I', 'P', 1}) + 3 + 8 + 8 + 8 + 4 // magic+version, N, Eps, Base, K
	binary.LittleEndian.PutUint32(ipData[rows:], 1<<31)
	if _, err := UnmarshalSketch(ipData); err == nil {
		f.Fatal("accepted an InnerProduct row count of 2^31")
	}
	f.Add(ipData)
	seed(NewL2HeavyHitters(cfg))
	// Two wire values that once sized an allocation unchecked: a
	// Count-Sketch column count that wraps the length check, and a
	// candidate-tracker capacity of 2^22 (576 MiB of tables).
	l2Data := must(must(NewL2HeavyHitters(cfg)).MarshalBinary())
	for name, bad := range map[string][]byte{
		"Count-Sketch column count + 2^61": countSketchColsWrapped(l2Data),
		"tracker capacity 2^22":            trackerCapacity(hhData, 1<<22),
	} {
		if bad == nil {
			f.Fatalf("%s: nothing to patch in the encoding", name)
		}
		if _, err := UnmarshalSketch(bad); err == nil {
			f.Fatalf("accepted a %s", name)
		}
		f.Add(bad)
	}
	seed(NewSyncSketch(cfg, WithCapacity(16)))
	tiny, held := pingPongFrames(f, cfg)
	var syn SyncSketch
	if err := syn.UnmarshalBinary(tiny); err == nil {
		f.Fatal("accepted a sparse-recovery header whose cell count disagrees with its capacity")
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
	// A bare sparse-recovery frame, without the envelope: refused.
	f.Add([]byte{'S', 'R', 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The generic dispatcher.
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
