package support

import (
	"math/rand"
	"reflect"
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

// TestMergeMatchesSingleStreamUnwindowed: with every level alive for
// the whole stream, level sketches are linear and the merged sampler
// recovers exactly what the single-writer recovers.
func TestMergeMatchesSingleStreamUnwindowed(t *testing.T) {
	s := gen.SensorOccupancy(gen.Config{N: 1 << 20, Items: 6000, Alpha: 4, Seed: 97})
	p := Params{N: 1 << 20, K: 16}
	const seed = 101
	whole := NewSampler(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(whole.UpdateColumns, s.Updates)

	parts := splitByIndex(s, 3)
	merged := NewSampler(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	for _, pt := range parts[1:] {
		sh := NewSampler(rand.New(rand.NewSource(seed)), p)
		core.UpdateBatch(sh.UpdateColumns, pt)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	got, want := merged.Recover(), whole.Recover()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged recover %d coords, single-stream %d", len(got), len(want))
	}
}

// TestMergeWindowedStaysValid: the windowed variant's level windows
// differ per shard; the merged sampler must still return only true
// support coordinates and enough of them.
func TestMergeWindowedStaysValid(t *testing.T) {
	s := gen.SensorOccupancy(gen.Config{N: 1 << 20, Items: 8000, Alpha: 4, Seed: 103})
	v := s.Materialize()
	p := Params{N: 1 << 20, K: 16, Windowed: true, Window: RecommendedWindow(4)}
	const seed = 107
	parts := splitByIndex(s, 4)
	merged := NewSampler(rand.New(rand.NewSource(seed)), p)
	core.UpdateBatch(merged.UpdateColumns, parts[0])
	for _, pt := range parts[1:] {
		sh := NewSampler(rand.New(rand.NewSource(seed)), p)
		core.UpdateBatch(sh.UpdateColumns, pt)
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	got := merged.Recover()
	if len(got) < p.K {
		t.Fatalf("merged windowed sampler recovered %d coords, want >= %d", len(got), p.K)
	}
	for _, i := range got {
		if v[i] == 0 {
			t.Fatalf("merged sampler recovered %d outside the support", i)
		}
	}
}

// TestMergeRejectsMismatches: a sampler of another k is refused.
// (Whether two samplers share a seed is their owner's Config check.)
func TestMergeRejectsMismatches(t *testing.T) {
	p := Params{N: 1 << 16, K: 8}
	a := NewSampler(rand.New(rand.NewSource(1)), p)
	if err := a.Merge(NewSampler(rand.New(rand.NewSource(1)), Params{N: 1 << 16, K: 4})); err == nil {
		t.Fatal("merging different k should fail")
	}
}
