package support

import (
	"encoding"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/l0"
	"repro/internal/sparse"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestSamplerMarshalRoundTrip(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		sp := NewSampler(rand.New(rand.NewSource(31)), Params{
			N: 1 << 10, K: 8, Windowed: windowed, Window: RecommendedWindow(4),
		})
		for i := uint64(0); i < 20; i++ {
			sp.Update(i*37%1024, int64(i)+1)
		}
		data, err := sp.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := wiretest.Restore(t, NewSampler(rand.New(rand.NewSource(31)), Params{
			N: 1 << 10, K: 8, Windowed: windowed, Window: RecommendedWindow(4),
		}), data)
		a, b := sp.Recover(), restored.Recover()
		if len(a) != len(b) {
			t.Fatalf("windowed=%v: Recover differs: %v vs %v", windowed, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("windowed=%v: Recover differs at %d", windowed, i)
			}
		}
		if sp.LiveLevels() != restored.LiveLevels() {
			t.Fatalf("windowed=%v: LiveLevels differs", windowed)
		}
		// The restored sampler merges where a clone would.
		if err := restored.Merge(sp.CloneInto(nil)); err != nil {
			t.Fatalf("windowed=%v: merge of restored sampler rejected: %v", windowed, err)
		}
	}
}

func TestSupportUnmarshalRejectsGarbage(t *testing.T) {
	fresh := func(k int) *Sampler { return NewSampler(rand.New(rand.NewSource(32)), Params{N: 256, K: k}) }
	sp := fresh(4)
	sp.Update(1, 2)
	data, _ := sp.MarshalBinary()
	if err := wire.Fill(nil, fresh(4)); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-9], fresh(4)); err == nil {
		t.Error("accepted truncated payload")
	}
	// k sizes every level sketch: a state of k = 4 does not fill k = 5.
	if err := wire.Fill(data, fresh(5)); err == nil {
		t.Error("a k = 5 sampler accepted a k = 4 state")
	}
}

// parse is a wire.Filler that only reads: it finds offsets inside a
// state.
type parse func(rd *wire.Reader)

func (p parse) Fill(rd *wire.Reader) { p(rd) }

// skipExactSmall and skipRoughL0 read past one l0.ExactSmall and one
// l0.RoughL0 state.
func skipExactSmall(rd *wire.Reader) {
	rd.Bool()
	rd.U32()
	rd.Take(16 * int(rd.U32()))
}

func skipRoughL0(rd *wire.Reader) {
	for n := rd.U32(); n > 0 && rd.Err() == nil; n-- {
		rd.U32()
		skipExactSmall(rd)
	}
	rd.Take(4 * int(rd.U32()))
}

// TestLevelListReadersRefuse: the three windowed states frame their
// rows and levels with one list and read it under one rule — a count
// the payload cannot hold, an index above the structure's top level
// (for the L0 estimator once any row up to 64: Estimate's median read
// a planted row no update could reach) and a repeated index are
// refused, as is the same in RoughL0's list of levels ever
// instantiated.
func TestLevelListReadersRefuse(t *testing.T) {
	type codec interface {
		encoding.BinaryMarshaler
		wire.Filler
	}
	const n = 1 << 10 // top level 10
	formats := []struct {
		name  string
		build func(seed int64) codec
		// header reads up to the level list; entry is an entry's byte
		// length past its index, which ends at offset at.
		header func(rd *wire.Reader)
		entry  func(blob []byte, at int) int
		ever   bool // the list of levels ever instantiated ends the blob
	}{
		{"RoughL0", func(seed int64) codec { return l0.NewRoughL0Windowed(rand.New(rand.NewSource(seed)), n, 2) },
			func(*wire.Reader) {},
			func(blob []byte, at int) int { return 9 + 16*int(binary.LittleEndian.Uint32(blob[at+5:])) }, true},
		{"Estimator", func(seed int64) codec {
			return l0.NewEstimator(rand.New(rand.NewSource(seed)), l0.Params{N: n, Eps: 0.25, Windowed: true, Window: 2})
		},
			func(rd *wire.Reader) {
				rd.U32()            // peak
				rd.Take(8 * 2 * 16) // the single row's 2K bins
				rd.Take(8 + 8*16)   // the rough estimator
				skipRoughL0(rd)
				skipExactSmall(rd)
			},
			func([]byte, int) int { return 8 * 16 }, false},
		{"Sampler", func(seed int64) codec {
			return NewSampler(rand.New(rand.NewSource(seed)), Params{N: n, K: 2, Windowed: true, Window: 1})
		},
			func(rd *wire.Reader) {
				rd.Take(8 + 8*roughCopies)
				rd.U32() // peak
			},
			func([]byte, int) int { return sparse.StateLen(Params{K: 2}.capacity()) }, false},
	}
	for _, f := range formats {
		blob := wiretest.MustMarshal(t, f.build(1))
		var list int
		if err := wire.Fill(blob, parse(func(rd *wire.Reader) {
			f.header(rd)
			list = rd.Offset()
			rd.Take(rd.Remaining())
		})); err != nil {
			t.Fatal(err)
		}
		if count := binary.LittleEndian.Uint32(blob[list:]); count < 2 {
			t.Fatalf("%s: level list of %d entries at offset %d; want two or more", f.name, count, list)
		}
		first := list + 4
		second := first + 4 + f.entry(blob, first+4)
		// The list ascends, so two indices in order say the offsets are right.
		if j0, j1 := binary.LittleEndian.Uint32(blob[first:]), binary.LittleEndian.Uint32(blob[second:]); j0 >= j1 || j1 > 10 {
			t.Fatalf("%s: offsets %d and %d hold %d and %d, not two ascending level indices", f.name, first, second, j0, j1)
		}
		patch := func(at int, v uint32) []byte {
			bad := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint32(bad[at:], v)
			return bad
		}
		crafts := map[string][]byte{
			"count beyond payload":  patch(list, 1<<30),
			"index above top level": patch(first, 11),
			"index above any level": patch(first, 65),
			"duplicate index":       patch(second, binary.LittleEndian.Uint32(blob[first:])),
		}
		if f.ever {
			crafts["instantiated index above top level"] = patch(len(blob)-4, 11)
			crafts["duplicate instantiated index"] = patch(len(blob)-4, binary.LittleEndian.Uint32(blob[len(blob)-8:]))
		}
		for name, bad := range crafts {
			if err := wire.Fill(bad, f.build(2)); err == nil {
				t.Errorf("%s: %s accepted", f.name, name)
			}
		}
		if err := wire.Fill(blob, f.build(2)); err != nil {
			t.Errorf("%s: honest blob refused: %v", f.name, err)
		}
	}
}

// TestAppendBinaryMatchesMarshalBinary: the sampler obeys the wire
// nesting rule and pays for one buffer, windowed and not.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		sp := NewSampler(rand.New(rand.NewSource(31)), Params{
			N: 1 << 10, K: 8, Windowed: windowed, Window: RecommendedWindow(4),
		})
		for i := uint64(0); i < 200; i++ {
			sp.Update(i*37%1024, int64(i)+1)
		}
		wiretest.CheckAppend(t, sp)
		wiretest.CheckGrowsOnce(t, sp)
	}
}
