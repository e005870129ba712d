package sketch

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// splitByIndex partitions a stream by index into `parts` substreams,
// the same partition shape the sharded engine produces.
func splitByIndex(s *stream.Stream, parts int) [][]stream.Update {
	out := make([][]stream.Update, parts)
	for _, u := range s.Updates {
		p := int(u.Index) % parts
		out[p] = append(out[p], u)
	}
	return out
}

// TestCountSketchMergeBitForBit: Count-Sketch is linear, so merging
// same-seed sketches of split streams must reproduce the single-stream
// table exactly, counter for counter.
func TestCountSketchMergeBitForBit(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.2, Seed: 3})
	const seed = 99
	whole := NewCountSketch(rand.New(rand.NewSource(seed)), 5, 128)
	core.UpdateBatch(whole.UpdateColumns, s.Updates)

	parts := splitByIndex(s, 3)
	shards := make([]*CountSketch, len(parts))
	for i, p := range parts {
		shards[i] = NewCountSketch(rand.New(rand.NewSource(seed)), 5, 128)
		core.UpdateBatch(shards[i].UpdateColumns, p)
	}
	merged := shards[0]
	for _, sh := range shards[1:] {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	for r := range whole.table {
		for c := range whole.table[r] {
			if merged.table[r][c] != whole.table[r][c] {
				t.Fatalf("cell (%d,%d): merged %d, single-stream %d", r, c, merged.table[r][c], whole.table[r][c])
			}
		}
	}
	if merged.mass != whole.mass {
		t.Fatalf("mass: merged %d, single-stream %d", merged.mass, whole.mass)
	}
}

// TestCountSketchMergeRejectsNil: a nil operand is an error. (Whether
// two sketches share a seed is their owner's Config check.)
func TestCountSketchMergeRejectsNil(t *testing.T) {
	a := NewCountSketch(rand.New(rand.NewSource(1)), 5, 128)
	if err := a.Merge(nil); err == nil {
		t.Fatal("merging nil should fail")
	}
}

// TestCountSketchCloneIsolated: a clone shares no mutable state.
func TestCountSketchCloneIsolated(t *testing.T) {
	cs := NewCountSketch(rand.New(rand.NewSource(5)), 5, 64)
	cs.Update(10, 3)
	c := cs.CloneInto(nil)
	c.Update(10, 40)
	if cs.Query(10) == c.Query(10) {
		t.Fatal("clone mutation leaked into the original")
	}
	if got := cs.Query(10); got != 3 {
		t.Fatalf("original query = %d, want 3", got)
	}
}
