package heavy

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestAlphaL1ColumnarMatchesScalar: feeding the heavy-hitters
// structure through the columnar batch path must reproduce the scalar
// path bit-for-bit — same sketch, same L1 scale, same candidate set,
// same answers — both in the exact (rate-1) regime and once CSSS is
// sampling: its thin stage makes the scalar path's rng draws, so the
// S = 512 case (the stream ends several halvings in) holds to the same
// standard.
func TestAlphaL1ColumnarMatchesScalar(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 14, Items: 30000, Alpha: 4, Zipf: 1.5, Seed: 3})
	for _, tc := range []struct {
		name   string
		budget int64 // CSSS per-row sample budget; 0 keeps the default
	}{{"rate1", 0}, {"sampled", 512}} {
		t.Run(tc.name, func(t *testing.T) {
			p := AlphaL1Params{N: 1 << 14, Eps: 0.05, Mode: Strict, Alpha: 4, S: tc.budget}
			a := NewAlphaL1(rand.New(rand.NewSource(23)), p)
			b := NewAlphaL1(rand.New(rand.NewSource(23)), p)
			for _, u := range s.Updates {
				a.Update(u.Index, u.Delta)
			}
			sizes := []int{64, 1, 509, 2048}
			for off, k := 0, 0; off < len(s.Updates); k++ {
				end := off + sizes[k%len(sizes)]
				if end > len(s.Updates) {
					end = len(s.Updates)
				}
				core.UpdateBatch(b.UpdateColumns, s.Updates[off:end])
				off = end
			}
			if pa, pb := a.sk.SampleExponent(), b.sk.SampleExponent(); pa != pb || (pb > 0) != (tc.budget > 0) {
				t.Fatalf("stream ended at exponent %d (scalar %d) with budget %d", pb, pa, tc.budget)
			}
			if !reflect.DeepEqual(a.HeavyHitters(), b.HeavyHitters()) {
				t.Fatalf("HeavyHitters: scalar %v, columnar %v", a.HeavyHitters(), b.HeavyHitters())
			}
			for i := uint64(0); i < 1<<14; i += 97 {
				if qa, qb := a.Query(i), b.Query(i); qa != qb {
					t.Fatalf("Query(%d): scalar %v, columnar %v", i, qa, qb)
				}
			}
			if sa, sb := a.SpaceBits(), b.SpaceBits(); sa != sb {
				t.Fatalf("SpaceBits: scalar %d, columnar %d", sa, sb)
			}
		})
	}
}

// TestAlphaL1QueryColumnsMatchesScalar: the batched point-query path
// must answer bit-identically to per-key Query, duplicates included.
func TestAlphaL1QueryColumnsMatchesScalar(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 14, Items: 30000, Alpha: 4, Zipf: 1.5, Seed: 9})
	h := NewAlphaL1(rand.New(rand.NewSource(31)), AlphaL1Params{N: 1 << 14, Eps: 0.05, Mode: Strict, Alpha: 4})
	core.UpdateBatch(h.UpdateColumns, s.Updates)
	keys := make([]uint64, 0, 256)
	for i := uint64(0); i < 1<<14; i += 97 {
		keys = append(keys, i)
	}
	keys = append(keys, keys[0], keys[0]) // adjacent duplicates
	keys = append(keys, keys[:8]...)      // non-adjacent duplicates
	est := make([]float64, len(keys))
	b := core.GetBatch()
	h.QueryColumns(b, keys, est)
	core.PutBatch(b)
	for j, k := range keys {
		if want := h.Query(k); est[j] != want {
			t.Fatalf("QueryColumns[%d] (key %d) = %v, Query = %v", j, k, est[j], want)
		}
	}
}

// TestAlphaL2QueryColumnsMatchesScalar: same contract for the Appendix
// A verifier's batched point query.
func TestAlphaL2QueryColumnsMatchesScalar(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 15000, Alpha: 4, Zipf: 1.4, Seed: 15})
	h := NewAlphaL2(rand.New(rand.NewSource(37)), 1<<12, 0.25, 4)
	core.UpdateBatch(h.UpdateColumns, s.Updates)
	keys := make([]uint64, 0, 128)
	for i := uint64(0); i < 1<<12; i += 37 {
		keys = append(keys, i)
	}
	keys = append(keys, keys[:5]...)
	est := make([]float64, len(keys))
	b := core.GetBatch()
	h.QueryColumns(b, keys, est)
	core.PutBatch(b)
	for j, k := range keys {
		if want := h.Query(k); est[j] != want {
			t.Fatalf("QueryColumns[%d] (key %d) = %v, Query = %v", j, k, est[j], want)
		}
	}
}

// TestAlphaL2ColumnarMatchesScalar covers the Appendix A structure's
// two-sketch columnar fan-out (magnitude column for the insertion
// pass, signed column for the verifier).
func TestAlphaL2ColumnarMatchesScalar(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 15000, Alpha: 4, Zipf: 1.4, Seed: 5})
	a := NewAlphaL2(rand.New(rand.NewSource(29)), 1<<12, 0.25, 4)
	b := NewAlphaL2(rand.New(rand.NewSource(29)), 1<<12, 0.25, 4)
	for _, u := range s.Updates {
		a.Update(u.Index, u.Delta)
	}
	for off := 0; off < len(s.Updates); off += 777 {
		end := off + 777
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		core.UpdateBatch(b.UpdateColumns, s.Updates[off:end])
	}
	if !reflect.DeepEqual(a.HeavyHitters(), b.HeavyHitters()) {
		t.Fatalf("HeavyHitters: scalar %v, columnar %v", a.HeavyHitters(), b.HeavyHitters())
	}
	if sa, sb := a.SpaceBits(), b.SpaceBits(); sa != sb {
		t.Fatalf("SpaceBits: scalar %d, columnar %d", sa, sb)
	}
}
