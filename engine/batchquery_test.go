package engine

import (
	"errors"
	"sync"
	"testing"

	bounded "repro"
)

// batchQueryIndexSets builds the index sets the EstimateBatch
// differentials run over: the stream's heavy hitters plus a spread of
// arbitrary universe points (some never updated), a duplicate-laden
// variant, and an adversarially skewed variant where every index is
// owned by one shard.
func batchQueryIndexSets(t *testing.T, e *Engine, hot []uint64) map[string][]uint64 {
	t.Helper()
	mixed := append([]uint64(nil), hot...)
	for i := uint64(0); i < 64; i++ {
		mixed = append(mixed, (i*2654435761)%(1<<16))
	}
	dups := make([]uint64, 0, 3*len(mixed))
	for r := 0; r < 3; r++ {
		dups = append(dups, mixed...) // non-adjacent duplicates
	}
	for _, i := range hot {
		dups = append(dups, i, i) // adjacent duplicates
	}
	skewed := make([]uint64, 0, 256)
	for i := uint64(0); len(skewed) < 256 && i < 1<<16; i++ {
		if e.ShardOf(i) == 0 {
			skewed = append(skewed, i)
		}
	}
	if len(skewed) == 0 {
		t.Fatal("no indices route to shard 0")
	}
	return map[string][]uint64{"mixed": mixed, "duplicates": dups, "skewed": skewed}
}

// TestEngineEstimateBatchMatchesScalar is the acceptance differential:
// EstimateBatch must be bit-for-bit identical to per-index Estimate at
// 1/2/4/8 shards — including duplicate-laden and adversarially skewed
// index sets — and the routed path must never build a snapshot.
func TestEngineEstimateBatchMatchesScalar(t *testing.T) {
	s, _ := fig1Stream(7)
	for _, shards := range []int{1, 2, 4, 8} {
		e, err := New(testCfg, Options{Shards: shards, BatchSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		// Uneven chunks leave pending runs for the early hand-off path.
		for off := 0; off < len(s.Updates); off += 777 {
			end := off + 777
			if end > len(s.Updates) {
				end = len(s.Updates)
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		single := must(bounded.NewHeavyHitters(testCfg))
		single.UpdateBatch(s.Updates)
		for name, idxs := range batchQueryIndexSets(t, e, single.HeavyHitters()) {
			got, err := e.EstimateBatch(idxs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(idxs) {
				t.Fatalf("shards=%d %s: %d results for %d indices", shards, name, len(got), len(idxs))
			}
			for j, i := range idxs {
				want, err := e.Estimate(i)
				if err != nil {
					t.Fatal(err)
				}
				if got[j] != want {
					t.Fatalf("shards=%d %s: EstimateBatch[%d] (index %d) = %v, scalar Estimate = %v",
						shards, name, j, i, got[j], want)
				}
			}
		}
		if n := e.Stats().SnapshotBuilds; n != 0 {
			t.Fatalf("shards=%d: routed EstimateBatch built %d snapshots, want 0", shards, n)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineProbeSupportRouted: the routed Probe answers exactly like
// the owning shard's single-writer reference sampler, the routed
// Support is the union of the per-shard references, and neither builds
// a snapshot.
func TestEngineProbeSupportRouted(t *testing.T) {
	s, v := fig1Stream(31)
	const shards = 4
	e, err := New(testCfg, Options{
		Shards: shards, BatchSize: 512,
		Structures: HeavyHitters | SupportSampler, SupportK: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for off := 0; off < len(s.Updates); off += 777 {
		end := off + 777
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		if err := e.Ingest(s.Updates[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard single-writer references fed exactly the shard
	// substreams the partition hash routes.
	refs := make([]*bounded.SupportSampler, shards)
	for r := range refs {
		refs[r] = must(bounded.NewSupportSampler(testCfg, bounded.WithK(16)))
	}
	for _, u := range s.Updates {
		refs[e.ShardOf(u.Index)].Update(u.Index, u.Delta)
	}

	sup, err := e.Support()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]bool)
	for _, ref := range refs {
		for _, i := range ref.Recover() {
			want[i] = true
		}
	}
	if len(sup) != len(want) {
		t.Fatalf("routed Support recovered %d coordinates, reference union has %d", len(sup), len(want))
	}
	for _, i := range sup {
		if !want[i] {
			t.Fatalf("routed Support recovered %d, absent from the reference union", i)
		}
		if v[i] == 0 {
			t.Fatalf("routed Support recovered %d, not in the true support", i)
		}
	}

	probes := append([]uint64(nil), sup...)
	probes = append(probes, 3, 77777%(1<<16), 12345)
	for _, i := range probes {
		got, err := e.Probe(i)
		if err != nil {
			t.Fatal(err)
		}
		if wantP := refs[e.ShardOf(i)].Contains(i); got != wantP {
			t.Fatalf("Probe(%d) = %v, owning-shard reference says %v", i, got, wantP)
		}
	}
	if n := e.Stats().SnapshotBuilds; n != 0 {
		t.Fatalf("routed Probe/Support built %d snapshots, want 0", n)
	}
}

// TestEngineProbeBatchMatchesScalar is the batched prober's
// acceptance differential: ProbeBatch must return exactly the
// per-index Probe verdicts at 1/2/4 shards — duplicate-laden and
// never-updated indices included — without building a snapshot.
func TestEngineProbeBatchMatchesScalar(t *testing.T) {
	s, _ := fig1Stream(37)
	for _, shards := range []int{1, 2, 4} {
		e, err := New(testCfg, Options{
			Shards: shards, BatchSize: 512,
			Structures: HeavyHitters | SupportSampler, SupportK: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(s.Updates); off += 777 {
			end := off + 777
			if end > len(s.Updates) {
				end = len(s.Updates)
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		sup, err := e.Support()
		if err != nil {
			t.Fatal(err)
		}
		idxs := append([]uint64(nil), sup...)
		for i := uint64(0); i < 48; i++ {
			idxs = append(idxs, (i*2654435761)%(1<<16))
		}
		idxs = append(idxs, idxs[0], idxs[0]) // adjacent duplicates
		got, err := e.ProbeBatch(idxs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(idxs) {
			t.Fatalf("shards=%d: %d verdicts for %d indices", shards, len(got), len(idxs))
		}
		for j, i := range idxs {
			want, err := e.Probe(i)
			if err != nil {
				t.Fatal(err)
			}
			if got[j] != want {
				t.Fatalf("shards=%d: ProbeBatch[%d] (index %d) = %v, scalar Probe = %v",
					shards, j, i, got[j], want)
			}
		}
		if n := e.Stats().SnapshotBuilds; n != 0 {
			t.Fatalf("shards=%d: routed ProbeBatch built %d snapshots, want 0", shards, n)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineBatchQueryNotEnabled: the routed batch queries report
// ErrNotEnabled for structures the engine does not maintain.
func TestEngineBatchQueryNotEnabled(t *testing.T) {
	e, err := New(testCfg, Options{Shards: 2, Structures: L1Estimator})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.EstimateBatch([]uint64{1, 2}); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("EstimateBatch without HeavyHitters: %v, want ErrNotEnabled", err)
	}
	if _, err := e.Probe(1); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("Probe without SupportSampler: %v, want ErrNotEnabled", err)
	}
	if _, err := e.ProbeBatch([]uint64{1, 2}); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("ProbeBatch without SupportSampler: %v, want ErrNotEnabled", err)
	}
	if _, err := e.Support(); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("Support without SupportSampler: %v, want ErrNotEnabled", err)
	}
}

// TestEngineEstimateBatchConcurrent exercises the routed batch path
// under concurrent producers — the -race target for the scatter plan,
// early hand-offs, and disjoint position writes.
func TestEngineEstimateBatchConcurrent(t *testing.T) {
	s, _ := fig1Stream(41)
	e, err := New(testCfg, Options{Shards: 4, BatchSize: 256, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	idxs := make([]uint64, 512)
	for j := range idxs {
		idxs[j] = uint64(j*131) % (1 << 16)
	}
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := p * 1000; off < len(s.Updates); off += 3000 {
				end := off + 1000
				if end > len(s.Updates) {
					end = len(s.Updates)
				}
				if err := e.Ingest(s.Updates[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			if _, err := e.EstimateBatch(idxs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if n := e.Stats().SnapshotBuilds; n != 0 {
		t.Fatalf("concurrent routed queries built %d snapshots, want 0", n)
	}
}
