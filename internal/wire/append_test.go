package wire_test

import (
	"bytes"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// leaf is a nested structure with a payload of its own.
type leaf struct{ body []byte }

func (l leaf) MarshalBinary() ([]byte, error) { return l.AppendBinary(nil) }
func (l leaf) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, "LF", 1)
	w.Bytes32(l.body)
	return w.Bytes(), nil
}

// tree nests two leaves and a column between them.
type tree struct {
	a, b leaf
	col  []int64
}

func (tr tree) MarshalBinary() ([]byte, error) { return tr.AppendBinary(nil) }
func (tr tree) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, "TR", 1)
	w.Marshal(tr.a)
	w.U32(uint32(len(tr.col)))
	wire.WriteCounts(w, tr.col, wire.LayoutOf(tr.col))
	w.Marshal(tr.b)
	return w.Bytes(), nil
}

// TestAppendBinaryMatchesMarshalBinary pins the nesting rule on the
// Writer itself — children append in place, with no length of their
// own, exactly what they marshal to — and on the one AppendBinary this
// package owns.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	tr := tree{a: leaf{[]byte("first")}, b: leaf{bytes.Repeat([]byte{9}, 300)}, col: []int64{-1, 2, -3}}
	wiretest.CheckAppend(t, tr)
	wiretest.CheckAppend(t, &wire.PartSnapshot{
		Header: wire.PartHeader{Shards: 2, N: 8, Eps: 0.5, Alpha: 2, Seed: 3, Structures: 5, Generation: 7},
		Shards: [][]wire.Blob{{{Bit: 1, Payload: []byte("one")}, {Bit: 4, Payload: nil}}, {{Bit: 1, Payload: bytes.Repeat([]byte{1}, 200)}}},
	})

	enc, _ := tr.MarshalBinary()
	r, _, err := wire.NewReader(enc, "TR")
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range []leaf{tr.a, tr.b} {
		want, _ := child.MarshalBinary()
		if got := r.Take(len(want)); !bytes.Equal(got, want) {
			t.Errorf("nested payload is %d bytes %q, child marshals to %d bytes", len(got), got, len(want))
		}
		if child.body[0] == 'f' {
			col := make([]int64, r.U32())
			wire.ReadCounts(r, col)
			if len(col) != 3 || col[2] != -3 {
				t.Errorf("column between the children = %v", col)
			}
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}
