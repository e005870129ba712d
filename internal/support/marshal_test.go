package support

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/l0"
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
		restored := &Sampler{}
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
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
	sp := NewSampler(rand.New(rand.NewSource(32)), Params{N: 256, K: 4})
	sp.Update(1, 2)
	data, _ := sp.MarshalBinary()
	fresh := &Sampler{}
	if err := fresh.UnmarshalBinary(nil); err == nil {
		t.Error("accepted nil")
	}
	if err := fresh.UnmarshalBinary(data[:len(data)-9]); err == nil {
		t.Error("accepted truncated payload")
	}
	bad := append([]byte(nil), data...)
	bad[2] = 99
	if err := fresh.UnmarshalBinary(bad); err == nil {
		t.Error("accepted wrong version")
	}
}

// TestLevelListReadersRefuse: the three windowed formats frame their
// rows and levels with one list and read it under one rule — a count
// the payload cannot hold, an index above the structure's top level
// (for "0M" once any row up to 64: Estimate's median read a planted row
// no update could reach) and a repeated index are refused, as is the
// same in "0R"'s list of levels ever instantiated; the receiver keeps
// the state it had.
func TestLevelListReadersRefuse(t *testing.T) {
	type codec interface {
		encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler
	}
	marshal := func(c codec) []byte {
		data, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	const n = 1 << 10 // top level 10
	nested := func(rd *wire.Reader, blobs int) {
		for i := 0; i < blobs; i++ {
			rd.Bytes32()
		}
	}
	formats := []struct {
		magic string
		build func(seed int64) codec
		// header skips to the level list; payload is an entry's byte
		// length past its index, given the u32 that follows the index.
		header  func(rd *wire.Reader)
		payload func(prefix uint32) int
		ever    bool // the list of levels ever instantiated ends the blob
	}{
		{"0R", func(seed int64) codec { return l0.NewRoughL0Windowed(rand.New(rand.NewSource(seed)), n, 2) },
			func(rd *wire.Reader) {
				rd.U32()
				rd.I64()
				rd.Bool()
				rd.U32()
				rd.I64()
				nested(rd, 1)
			},
			func(prefix uint32) int { return 4 + int(prefix) }, true},
		{"0M", func(seed int64) codec {
			return l0.NewEstimator(rand.New(rand.NewSource(seed)), l0.Params{N: n, Eps: 0.25, Windowed: true, Window: 2})
		},
			func(rd *wire.Reader) {
				rd.U64()
				rd.F64()
				rd.Bool()
				rd.U32()
				rd.U32()
				rd.U64()
				rd.I64()
				rd.U32()
				nested(rd, 7)
				rd.U64s()
				rd.U64s()
				rd.U64s()
				nested(rd, 3)
			},
			func(prefix uint32) int { return 4 + 8*int(prefix) }, false},
		{"SS", func(seed int64) codec {
			return NewSampler(rand.New(rand.NewSource(seed)), Params{N: n, K: 2, Windowed: true, Window: 1})
		},
			func(rd *wire.Reader) {
				rd.U64()
				rd.U32()
				rd.U32()
				rd.Bool()
				rd.U32()
				rd.U32()
				rd.U32()
				nested(rd, 3)
			},
			func(prefix uint32) int { return 4 + int(prefix) }, false},
	}
	for _, f := range formats {
		blob := marshal(f.build(1))
		rd, _, err := wire.NewReader(blob, f.magic)
		if err != nil {
			t.Fatal(err)
		}
		f.header(rd)
		list := len(blob) - rd.Remaining()
		if count := rd.U32(); rd.Err() != nil || count < 2 {
			t.Fatalf("%s: level list of %d entries at offset %d (%v); want two or more", f.magic, count, list, rd.Err())
		}
		first := list + 4
		second := first + 4 + f.payload(binary.LittleEndian.Uint32(blob[first+4:]))
		// The list ascends, so two indices in order say the offsets are right.
		if j0, j1 := binary.LittleEndian.Uint32(blob[first:]), binary.LittleEndian.Uint32(blob[second:]); j0 >= j1 || j1 > 10 {
			t.Fatalf("%s: offsets %d and %d hold %d and %d, not two ascending level indices", f.magic, first, second, j0, j1)
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
			recv := f.build(2)
			before := marshal(recv)
			if err := recv.UnmarshalBinary(bad); err == nil {
				t.Errorf("%s: %s accepted", f.magic, name)
			}
			if !bytes.Equal(before, marshal(recv)) {
				t.Errorf("%s: %s changed the receiver", f.magic, name)
			}
		}
		if err := f.build(2).UnmarshalBinary(blob); err != nil {
			t.Errorf("%s: honest blob refused: %v", f.magic, err)
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
