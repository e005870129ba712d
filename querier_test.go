package bounded

import (
	"strings"
	"testing"
)

// qtestStream builds a small bounded-deletion workload for the public
// query-API tests: Zipf-ish inserts with partial deletions.
func qtestStream() []Update {
	var us []Update
	for r := 0; r < 40; r++ {
		for i := uint64(0); i < 200; i++ {
			d := int64(1)
			if i < 8 {
				d = 60 // heavy head
			}
			us = append(us, Update{Index: i * 31 % (1 << 12), Delta: d})
		}
	}
	for i := uint64(50); i < 120; i++ {
		us = append(us, Update{Index: i * 31 % (1 << 12), Delta: -20})
	}
	return us
}

// TestEstimateBatchMatchesScalar: the public batched readers answer
// bit-identically to per-index Estimate for both BatchPointQueriers,
// including duplicate indices and the scratch-reusing EstimateColumns
// form.
func TestEstimateBatchMatchesScalar(t *testing.T) {
	cfg := Config{N: 1 << 12, Eps: 0.05, Alpha: 4, Seed: 9}
	us := qtestStream()
	idxs := make([]uint64, 0, 300)
	for i := uint64(0); i < 1<<12; i += 17 {
		idxs = append(idxs, i)
	}
	idxs = append(idxs, idxs[0], idxs[0]) // adjacent duplicates
	idxs = append(idxs, idxs[:9]...)      // non-adjacent duplicates

	queriers := map[string]BatchPointQuerier{}
	hh := must(NewHeavyHitters(cfg))
	hh.UpdateBatch(us)
	queriers["HeavyHitters"] = hh
	l2 := must(NewL2HeavyHitters(cfg))
	l2.UpdateBatch(us)
	queriers["L2HeavyHitters"] = l2

	for name, q := range queriers {
		got := q.EstimateBatch(idxs)
		if len(got) != len(idxs) {
			t.Fatalf("%s: %d results for %d indices", name, len(got), len(idxs))
		}
		for j, i := range idxs {
			if want := q.Estimate(i); got[j] != want {
				t.Fatalf("%s: EstimateBatch[%d] (index %d) = %v, Estimate = %v", name, j, i, got[j], want)
			}
		}
		// The explicit plan: one batch, loaded once, queried through the
		// scratch-reusing column form.
		b := GetBatch()
		b.LoadKeys(idxs)
		cols := make([]float64, b.Len())
		q.EstimateColumns(b, cols)
		PutBatch(b)
		for j := range idxs {
			if cols[j] != got[j] {
				t.Fatalf("%s: EstimateColumns[%d] = %v, EstimateBatch = %v", name, j, cols[j], got[j])
			}
		}
	}
}

// TestCapabilityQueriers exercises each capability interface through
// its interface type — the generic-consumer path the engine and
// cmd/bdquery use.
func TestCapabilityQueriers(t *testing.T) {
	cfg := Config{N: 1 << 12, Eps: 0.1, Alpha: 4, Seed: 11}
	us := qtestStream()

	hh := must(NewHeavyHitters(cfg))
	hh.UpdateBatch(us)
	var set SetQuerier = hh
	if members := set.Members(); len(members) == 0 {
		t.Error("HeavyHitters.Members returned nothing on a heavy-headed stream")
	}

	l1 := must(NewL1Estimator(cfg))
	l1.UpdateBatch(us)
	var sc ScalarQuerier = l1
	if sc.Estimate() <= 0 {
		t.Error("L1 scalar estimate is nonpositive")
	}

	sup := must(NewSupportSampler(cfg, WithK(8)))
	for _, u := range us[:400] {
		sup.Update(u.Index, u.Delta)
	}
	var pr Prober = sup
	members := sup.Members()
	for _, i := range members {
		if !pr.Contains(i) {
			t.Errorf("Contains(%d) = false for a recovered member", i)
		}
	}

	smp := must(NewL1Sampler(cfg, WithCopies(8)))
	smp.UpdateBatch(us)
	var sq SampleQuerier = smp
	if res, ok := sq.Sample(); ok && res.Estimate == 0 {
		t.Error("successful sample carries a zero estimate")
	}
}

// TestZeroValueQueryDiagnostics: every query method on a zero-value
// structure must fail with a diagnostic naming the structure and the
// fix, instead of nil-panicking inside an internal package.
func TestZeroValueQueryDiagnostics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s on zero value did not panic", name)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "zero-value") || !strings.Contains(msg, "UnmarshalBinary") {
				t.Errorf("%s panic %q lacks the zero-value diagnostic", name, r)
			}
		}()
		f()
	}
	var hh HeavyHitters
	expectPanic("HeavyHitters.HeavyHitters", func() { hh.HeavyHitters() })
	expectPanic("HeavyHitters.Members", func() { hh.Members() })
	expectPanic("HeavyHitters.HeavyHittersOver", func() { hh.HeavyHittersOver(nil) })
	expectPanic("HeavyHitters.Estimate", func() { hh.Estimate(1) })
	expectPanic("HeavyHitters.EstimateBatch", func() { hh.EstimateBatch([]uint64{1}) })
	expectPanic("HeavyHitters.EstimateColumns", func() { hh.EstimateColumns(GetBatch(), nil) })
	expectPanic("HeavyHitters.SpaceBits", func() { hh.SpaceBits() })
	var l1 L1Estimator
	expectPanic("L1Estimator.Estimate", func() { l1.Estimate() })
	expectPanic("L1Estimator.SpaceBits", func() { l1.SpaceBits() })
	var l0 L0Estimator
	expectPanic("L0Estimator.Estimate", func() { l0.Estimate() })
	expectPanic("L0Estimator.LiveRows", func() { l0.LiveRows() })
	var smp L1Sampler
	expectPanic("L1Sampler.Sample", func() { smp.Sample() })
	var sup SupportSampler
	expectPanic("SupportSampler.Recover", func() { sup.Recover() })
	expectPanic("SupportSampler.Members", func() { sup.Members() })
	expectPanic("SupportSampler.Contains", func() { sup.Contains(1) })
	var ip InnerProduct
	expectPanic("InnerProduct.Estimate", func() { ip.Estimate() })
	var l2 L2HeavyHitters
	expectPanic("L2HeavyHitters.HeavyHitters", func() { l2.HeavyHitters() })
	expectPanic("L2HeavyHitters.Estimate", func() { l2.Estimate(1) })
	expectPanic("L2HeavyHitters.EstimateBatch", func() { l2.EstimateBatch([]uint64{1}) })
	var syn SyncSketch
	expectPanic("SyncSketch.SpaceBits", func() { syn.SpaceBits() })

	// A failed unmarshal leaves the receiver zero-valued — the guard
	// must still fire afterwards.
	var broken HeavyHitters
	if err := broken.UnmarshalBinary([]byte("not a sketch")); err == nil {
		t.Fatal("UnmarshalBinary accepted garbage")
	}
	expectPanic("HeavyHitters.Estimate after failed unmarshal", func() { broken.Estimate(1) })
}
