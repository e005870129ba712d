package topk

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/csss"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// recorder wraps a sketch's HashColumns and keeps the key column it
// was handed — the Refresher's distinct column, as the sketch saw it.
type recorder[E int64 | float64] struct {
	Columnar[E]
	keys []uint64
}

func (r *recorder[E]) HashColumns(b *core.Batch, keys []uint64) ([]uint32, []int8) {
	r.keys = append(r.keys[:0], keys...)
	return r.Columnar.HashColumns(b, keys)
}

// checkRefresh runs one Offer over b against q and asserts
// the shared step's contract: the sketch is asked for exactly the
// batch's distinct indices in first-occurrence order, once, and every
// one of them lands in the tracker with the estimate per-index Query
// gives (the tracker is sized to hold them all).
func checkRefresh[E int64 | float64](t *testing.T, r *Refresher[E], b *core.Batch, q Columnar[E], query func(uint64) E) {
	t.Helper()
	var want []uint64
	for _, i := range b.Idx {
		if !slices.Contains(want, i) {
			want = append(want, i)
		}
	}
	rec := &recorder[E]{Columnar: q}
	trk := New(len(b.Idx) + 1)
	r.Offer(trk, b, rec)
	if !slices.Equal(rec.keys, want) {
		t.Fatalf("re-estimated %v, want the distinct indices in first-occurrence order %v", rec.keys, want)
	}
	if trk.Len() != len(want) {
		t.Fatalf("tracker holds %d items after the refresh, want %d", trk.Len(), len(want))
	}
	for _, e := range trk.heap {
		if !slices.Contains(want, e.id) {
			t.Fatalf("tracker was offered %d, which the batch never touched", e.id)
		}
		if got := float64(query(e.id)); e.est != got {
			t.Fatalf("index %d offered estimate %v, per-index Query gives %v", e.id, e.est, got)
		}
	}
}

// TestRefresherOffersDistinctWithQueryEstimates pins the one candidate
// refresh step for both backings it serves: CSSS (float estimates;
// AlphaL1, the L1 sampler) and Count-Sketch (integer estimates;
// CountSketchHH, AlphaL2). The Refresher is reused across batches, so
// its scratch must not leak one batch's indices into the next.
func TestRefresherOffersDistinctWithQueryEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := csss.New(rand.New(rand.NewSource(5)), csss.Params{Rows: 5, K: 64, S: 1 << 20})
	dense := sketch.NewCountSketch(rand.New(rand.NewSource(6)), 5, 128)
	var fr Refresher[float64]
	var ir Refresher[int64]
	for _, n := range []int{1, 7, 400, 0, 33} {
		us := make([]stream.Update, n)
		for j := range us {
			us[j] = stream.Update{Index: uint64(rng.Intn(n/3 + 2)), Delta: int64(rng.Intn(9) - 2)}
		}
		b := core.GetBatch()
		b.LoadUpdates(us)
		cs.UpdateColumns(b)
		checkRefresh(t, &fr, b, cs, cs.Query)
		dense.UpdateColumns(b)
		checkRefresh(t, &ir, b, dense, dense.Query)
		core.PutBatch(b)
	}
}
