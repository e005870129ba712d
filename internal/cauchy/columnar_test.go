package cauchy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestSketchColumnarMatchesScalar: the accumulator-major columnar
// apply must be bit-identical to per-update ingestion — every float
// accumulator sees the same add sequence, so estimates and the |y|
// peak (SpaceBits) match exactly.
func TestSketchColumnarMatchesScalar(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 256, Items: 8000, Alpha: 4, Zipf: 1.2, Seed: 13})
	a := NewSketch(rand.New(rand.NewSource(17)), 64, 16, 4)
	b := NewSketch(rand.New(rand.NewSource(17)), 64, 16, 4)
	for _, u := range s.Updates {
		a.Update(u.Index, u.Delta)
	}
	sizes := []int{1, 5, 100, 999}
	for off, k := 0, 0; off < len(s.Updates); k++ {
		end := off + sizes[k%len(sizes)]
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		core.UpdateBatch(b.UpdateColumns, s.Updates[off:end])
		off = end
	}
	if ma, mb := a.MedianEstimate(), b.MedianEstimate(); ma != mb {
		t.Fatalf("MedianEstimate: scalar %v, columnar %v", ma, mb)
	}
	if la, lb := a.LnCosEstimate(), b.LnCosEstimate(); la != lb {
		t.Fatalf("LnCosEstimate: scalar %v, columnar %v", la, lb)
	}
	if sa, sb := a.SpaceBits(), b.SpaceBits(); sa != sb {
		t.Fatalf("SpaceBits (|y| peak): scalar %d, columnar %d", sa, sb)
	}
}
