package bounded

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestZeroValueIngestAndCopyDiagnostics: on a zero-value structure of
// every kind, the ingest and copy methods fail with the diagnostic the
// query methods give — naming the structure and the fix — instead of
// nil-panicking inside an internal package or returning a zero copy.
func TestZeroValueIngestAndCopyDiagnostics(t *testing.T) {
	cfg := Config{N: 1 << 10, Eps: 0.1, Alpha: 2, Seed: 1}
	for k := KindHeavyHitters; k.valid(); k++ {
		built := must(kindTable[k].build(cfg))
		zero := func() Sketch { return reflect.New(reflect.TypeOf(built).Elem()).Interface().(Sketch) }
		for method, call := range map[string]func(Sketch){
			"Update":      func(s Sketch) { s.Update(1, 1) },
			"UpdateBatch": func(s Sketch) { s.UpdateBatch([]Update{{Index: 1, Delta: 1}}) },
			"UpdateColumns": func(s Sketch) {
				b := PlanBatch([]Update{{Index: 1, Delta: 1}})
				defer PutBatch(b)
				s.UpdateColumns(b)
			},
			"SpaceBits": func(s Sketch) { s.SpaceBits() },
			"Clone":     func(s Sketch) { s.Clone() },
			"CloneInto": func(s Sketch) { s.CloneInto(built.Clone()) },
		} {
			t.Run(k.String()+"."+method, func(t *testing.T) {
				defer func() {
					r := recover()
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, "zero-value "+k.String()) || !strings.Contains(msg, "UnmarshalBinary") {
						t.Errorf("got %v (%T), want the zero-value diagnostic naming %s", r, r, k)
					}
				}()
				call(zero())
			})
		}
	}
}

// TestPublicMethodSets pins the exported method set of every public
// structure, names and signatures: how the structures share their
// bodies is not part of the API.
func TestPublicMethodSets(t *testing.T) {
	sketch := []string{
		"Clone() bounded.Sketch",
		"CloneInto(bounded.Sketch) bounded.Sketch",
		"MarshalBinary() ([]uint8, error)",
		"Merge(bounded.Sketch) error",
		"SpaceBits() int64",
		"UnmarshalBinary([]uint8) error",
		"Update(uint64, int64)",
		"UpdateBatch([]stream.Update)",
		"UpdateColumns(*core.Batch)",
	}
	want := map[any][]string{
		(*HeavyHitters)(nil): {
			"Estimate(uint64) float64",
			"EstimateBatch([]uint64) []float64",
			"EstimateColumns(*core.Batch, []float64)",
			"Halvings() int64",
			"HashCandidates()",
			"HeavyHitters() []uint64",
			"HeavyHittersOver([]*bounded.HeavyHitters) ([]uint64, error)",
			"Members() []uint64",
			"MergeCounts() (int, int)",
			"RaiseSampleExponent(int) error",
			"Rerank([]*bounded.HeavyHitters) error",
			"SampleExponent() int",
			"SampleExponentAt(int64) int",
			"SamplePosition() int64",
			"Shift(*bounded.HeavyHitters, *bounded.HeavyHitters) error",
		},
		(*L1Estimator)(nil): {
			"Estimate() float64",
			"SampleLevel() int",
		},
		(*L0Estimator)(nil): {
			"Estimate() float64",
			"LiveRows() int",
		},
		(*L1Sampler)(nil): {
			"Sample() (sampler.Result, bool)",
		},
		(*SupportSampler)(nil): {
			"Contains(uint64) bool",
			"Members() []uint64",
			"ProbeBatch([]uint64) []bool",
			"Recover() []uint64",
		},
		(*InnerProduct)(nil): {
			"Estimate() float64",
			"UpdateBatchF([]stream.Update)",
			"UpdateBatchG([]stream.Update)",
			"UpdateColumnsG(*core.Batch)",
			"UpdateF(uint64, int64)",
			"UpdateG(uint64, int64)",
		},
		(*L2HeavyHitters)(nil): {
			"Estimate(uint64) float64",
			"EstimateBatch([]uint64) []float64",
			"EstimateColumns(*core.Batch, []float64)",
			"HeavyHitters() []uint64",
			"Members() []uint64",
		},
		(*SyncSketch)(nil): {
			"Decode() (map[uint64]int64, error)",
			"SubRemote([]uint8) error",
		},
	}
	if len(want) != len(kindTable)-1 {
		t.Fatalf("pinned %d structures, the package has %d kinds", len(want), len(kindTable)-1)
	}
	for v, own := range want {
		typ := reflect.TypeOf(v)
		var got []string
		for i := range typ.NumMethod() {
			m := typ.Method(i)
			params := strings.TrimPrefix(strings.TrimPrefix(m.Type.String(), "func("+typ.String()), ", ")
			got = append(got, m.Name+"("+params)
		}
		exp := slices.Sorted(slices.Values(append(own, sketch...)))
		if !slices.Equal(got, exp) {
			t.Errorf("%s methods:\n got %q\nwant %q", typ, got, exp)
		}
		if n := typ.Elem().NumMethod(); n != 0 {
			t.Errorf("%s has %d exported value-receiver methods, want 0", typ.Elem(), n)
		}
	}
}
