package sampler

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

func splitByIndex(s *stream.Stream, parts int) [][]stream.Update {
	out := make([][]stream.Update, parts)
	for _, u := range s.Updates {
		p := int(u.Index) % parts
		out[p] = append(out[p], u)
	}
	return out
}

// TestSamplerMergeMatchesSingleStream: with the default budgets the
// sampler's CSSS instances stay in the exact regime on this workload,
// so the merged sampler must make the same accept/FAIL decision and
// return the same sample as the single-writer.
func TestSamplerMergeMatchesSingleStream(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 16, Items: 3000, Alpha: 2, Seed: 109})
	v := s.Materialize()
	p := Params{N: 16, Eps: 0.25, Alpha: 2, S: 1 << 18}
	const seed = 113
	whole := New(rand.New(rand.NewSource(seed)), p, 8)
	core.UpdateBatch(whole.UpdateColumns, s.Updates)

	parts := splitByIndex(s, 2)
	merged := New(rand.New(rand.NewSource(seed)), p, 8)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	sh := New(rand.New(rand.NewSource(seed)), p, 8)
	core.UpdateBatch(sh.UpdateColumns, parts[1])
	if err := merged.Merge(sh); err != nil {
		t.Fatal(err)
	}

	wres, wok := whole.Sample()
	mres, mok := merged.Sample()
	if wok != mok {
		t.Fatalf("merged sampler ok=%v, single-stream ok=%v", mok, wok)
	}
	if wok {
		if mres.Index != wres.Index || mres.Estimate != wres.Estimate {
			t.Fatalf("merged sample %+v, single-stream %+v", mres, wres)
		}
		if v[mres.Index] == 0 {
			t.Fatalf("sampled %d outside support", mres.Index)
		}
		if truth := float64(v[mres.Index]); math.Abs(mres.Estimate-truth) > 0.5*math.Abs(truth) {
			t.Fatalf("merged estimate %v too far from truth %v", mres.Estimate, truth)
		}
	}
}

// TestSamplerMergeRejectsMismatches: copy count and params mismatches
// fail. (Whether two samplers share a seed is their owner's Config
// check.)
func TestSamplerMergeRejectsMismatches(t *testing.T) {
	p := Params{N: 64, Eps: 0.25, Alpha: 2, S: 1 << 12}
	a := New(rand.New(rand.NewSource(1)), p, 4)
	if err := a.Merge(New(rand.New(rand.NewSource(1)), p, 8)); err == nil {
		t.Fatal("merging different copy counts should fail")
	}
	p2 := p
	p2.Eps = 0.5
	if err := a.Merge(New(rand.New(rand.NewSource(1)), p2, 4)); err == nil {
		t.Fatal("merging different eps should fail")
	}
}

// TestSamplerCloneIsolated: clone then diverge; the original's sample
// decision is unaffected.
func TestSamplerCloneIsolated(t *testing.T) {
	p := Params{N: 64, Eps: 0.25, Alpha: 2, S: 1 << 12}
	a := New(rand.New(rand.NewSource(3)), p, 4)
	a.Update(5, 10)
	c := a.CloneInto(nil)
	for i := 0; i < 100; i++ {
		c.Update(uint64(i%64), 1)
	}
	if got := a.instances[0].r; got != 10 {
		t.Fatalf("original r = %d after clone mutation, want 10", got)
	}
}
