package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stream"
)

func TestBatchLoadUpdates(t *testing.T) {
	b := GetBatch()
	defer PutBatch(b)
	us := []stream.Update{{Index: 3, Delta: -2}, {Index: 9, Delta: 5}, {Index: 3, Delta: 1}}
	b.LoadUpdates(us)
	if b.Len() != len(us) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(us))
	}
	for j, u := range us {
		if b.Idx[j] != u.Index || b.Delta[j] != u.Delta {
			t.Fatalf("column %d = (%d,%d), want (%d,%d)", j, b.Idx[j], b.Delta[j], u.Index, u.Delta)
		}
	}
	// Reload with fewer updates: stale tail must not leak through.
	b.LoadUpdates(us[:1])
	if b.Len() != 1 || b.Idx[0] != 3 || b.Delta[0] != -2 {
		t.Fatalf("reload: got len=%d Idx=%v Delta=%v", b.Len(), b.Idx, b.Delta)
	}
}

func TestBatchZeroLength(t *testing.T) {
	b := GetBatch()
	defer PutBatch(b)
	b.LoadUpdates(nil)
	if b.Len() != 0 {
		t.Fatalf("empty LoadUpdates: Len = %d", b.Len())
	}
	if got := b.Cols32(0); len(got) != 0 {
		t.Fatalf("Cols32(0) has len %d", len(got))
	}
	if got := b.Signs8(0); len(got) != 0 {
		t.Fatalf("Signs8(0) has len %d", len(got))
	}
	if got := b.Col64(0); len(got) != 0 {
		t.Fatalf("Col64(0) has len %d", len(got))
	}
}

// TestBatchOversized grows the columns well past typical batch sizes
// and verifies the scratch follows; the same pooled object then shrinks
// back to a small view without reallocating.
func TestBatchOversized(t *testing.T) {
	b := GetBatch()
	defer PutBatch(b)
	const big = 1 << 17
	us := make([]stream.Update, big)
	for i := range us {
		us[i] = stream.Update{Index: uint64(i), Delta: int64(i%5 - 2)}
	}
	b.LoadUpdates(us)
	if b.Len() != big {
		t.Fatalf("Len = %d, want %d", b.Len(), big)
	}
	cols := b.Cols32(7 * big)
	if len(cols) != 7*big {
		t.Fatalf("Cols32: len %d", len(cols))
	}
	cols[7*big-1] = 42
	// Shrink: the small view must reuse the big backing array.
	small := b.Cols32(8)
	if len(small) != 8 {
		t.Fatalf("shrunk Cols32: len %d", len(small))
	}
	if &small[0] != &cols[0] {
		t.Fatalf("Cols32 reallocated on shrink")
	}
	b.LoadUpdates(us[:3])
	if b.Len() != 3 {
		t.Fatalf("shrunk Len = %d", b.Len())
	}
}

// TestArenaConcurrentProducers drives the pool from many goroutines at
// once (run under -race): every producer must observe a batch whose
// columns contain exactly what it wrote, regardless of interleaving.
func TestArenaConcurrentProducers(t *testing.T) {
	const producers = 8
	const rounds = 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := GetBatch()
				n := 1 + (p+r)%97
				for j := 0; j < n; j++ {
					b.Append(uint64(p)<<32|uint64(j), int64(p*j))
				}
				cols := b.Cols32(3 * n)
				for j := range cols {
					cols[j] = uint32(p)
				}
				if b.Len() != n {
					t.Errorf("producer %d: Len = %d, want %d", p, b.Len(), n)
					return
				}
				for j := 0; j < n; j++ {
					if b.Idx[j] != uint64(p)<<32|uint64(j) || b.Delta[j] != int64(p*j) {
						t.Errorf("producer %d: column %d corrupted", p, j)
						return
					}
				}
				for j := range cols {
					if cols[j] != uint32(p) {
						t.Errorf("producer %d: scratch %d corrupted", p, j)
						return
					}
				}
				PutBatch(b)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkPlan times building the distinct plan of a 4096-update
// column of Zipf keys (about 0.4 distinct keys per update, the
// benchmark streams' shape) on a warm batch. The columns rotate so no
// branch predictor learns one batch's hit-or-new sequence.
func BenchmarkPlan(b *testing.B) {
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 1<<20)
	cols := make([][]uint64, 64)
	for c := range cols {
		cols[c] = make([]uint64, 4096)
		for i := range cols[c] {
			cols[c][i] = z.Uint64()
		}
	}
	batch := new(Batch)
	var distinct int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Idx, batch.planned = cols[i%len(cols)], false
		keys, _ := Distinct(batch)
		distinct += len(keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4096), "ns/update")
	b.ReportMetric(float64(distinct)/float64(b.N*4096), "distinct/update")
}
