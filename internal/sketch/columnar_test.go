package sketch

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// columnarStream is a mixed-sign workload with repeated indices.
func columnarStream(seed int64) *stream.Stream {
	return gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 20000, Alpha: 4, Zipf: 1.2, Seed: seed})
}

// feedChunks pushes the stream through core.UpdateBatch in uneven
// chunks so batch boundaries land at arbitrary offsets.
func feedChunks(s *stream.Stream, apply func(*core.Batch)) {
	sizes := []int{1, 7, 64, 321, 1024}
	for off, k := 0, 0; off < len(s.Updates); k++ {
		end := off + sizes[k%len(sizes)]
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		core.UpdateBatch(apply, s.Updates[off:end])
		off = end
	}
}

// TestCountSketchColumnarMatchesScalar: the columnar batch path must
// leave the sketch bit-identical to per-update ingestion — table,
// mass, and therefore every query and the space accounting.
func TestCountSketchColumnarMatchesScalar(t *testing.T) {
	s := columnarStream(3)
	a := NewCountSketch(rand.New(rand.NewSource(5)), 7, 96)
	b := NewCountSketch(rand.New(rand.NewSource(5)), 7, 96)
	for _, u := range s.Updates {
		a.Update(u.Index, u.Delta)
	}
	feedChunks(s, b.UpdateColumns)
	for i := uint64(0); i < 1<<12; i += 17 {
		if qa, qb := a.Query(i), b.Query(i); qa != qb {
			t.Fatalf("Query(%d): scalar %d, columnar %d", i, qa, qb)
		}
	}
	if la, lb := a.L2Estimate(), b.L2Estimate(); la != lb {
		t.Fatalf("L2Estimate: scalar %v, columnar %v", la, lb)
	}
	if ma, mb := a.MaxAbs(), b.MaxAbs(); ma != mb {
		t.Fatalf("MaxAbs: scalar %d, columnar %d", ma, mb)
	}
	if sa, sb := a.SpaceBits(), b.SpaceBits(); sa != sb {
		t.Fatalf("SpaceBits: scalar %d, columnar %d", sa, sb)
	}
}

// queryKeySet builds a batched-read key set with never-updated points,
// adjacent duplicates, and non-adjacent duplicates.
func queryKeySet() []uint64 {
	keys := make([]uint64, 0, 600)
	for i := uint64(0); i < 1<<12; i += 17 {
		keys = append(keys, i)
	}
	keys = append(keys, 0, 0, 17, 17) // adjacent duplicates
	keys = append(keys, keys[:16]...) // non-adjacent duplicates
	return keys
}

// TestCountSketchQueryColumnsMatchesScalar: the batched read twin —
// QueryColumns answers must be bit-identical to per-key Query,
// including duplicate keys, and must not perturb the sketch.
func TestCountSketchQueryColumnsMatchesScalar(t *testing.T) {
	s := columnarStream(11)
	cs := NewCountSketch(rand.New(rand.NewSource(5)), 7, 96)
	feedChunks(s, cs.UpdateColumns)
	keys := queryKeySet()
	out := make([]int64, len(keys))
	b := core.GetBatch()
	cs.QueryColumns(b, keys, out)
	core.PutBatch(b)
	for j, k := range keys {
		if want := cs.Query(k); out[j] != want {
			t.Fatalf("QueryColumns[%d] (key %d) = %d, Query = %d", j, k, out[j], want)
		}
	}
}
