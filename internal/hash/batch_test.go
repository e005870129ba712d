package hash

import (
	"math/rand"
	"testing"

	"repro/internal/nt"
)

// TestBucketSignsBatchMatchesScalar: the row-major batch evaluator must
// be bit-identical to the per-key BucketSign path for every row.
func TestBucketSignsBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{1, 3, 7} {
		for _, cols := range []uint64{2, 96, 1 << 20} {
			b := NewBuckets(rng, rows, cols)
			keys := make([]uint64, 257)
			for i := range keys {
				keys[i] = rng.Uint64() >> 4
			}
			keys[0], keys[1] = 0, 1 // edge keys
			n := len(keys)
			bc := make([]uint32, rows*n)
			bs := make([]int8, rows*n)
			b.BucketSignsBatch(keys, bc, bs)
			for r := 0; r < rows; r++ {
				for j, x := range keys {
					wc, ws := b.BucketSign(r, x)
					if uint64(bc[r*n+j]) != wc || int64(bs[r*n+j]) != ws {
						t.Fatalf("rows=%d cols=%d row %d key %d: batch (%d,%d) != scalar (%d,%d)",
							rows, cols, r, x, bc[r*n+j], bs[r*n+j], wc, ws)
					}
				}
			}
		}
	}
}

// TestFieldBatchMatchesScalar covers the specialized k = 2/4 loops and
// the generic fallback.
func TestFieldBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 4, 8} {
		h := NewKWise(rng, k)
		keys := make([]uint64, 100)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		out := make([]uint64, len(keys))
		h.FieldBatch(keys, out)
		for j, x := range keys {
			if want := h.Field(x); out[j] != want {
				t.Fatalf("k=%d key %d: batch %d != scalar %d", k, x, out[j], want)
			}
		}
	}
}

// TestRangeBatchMatchesScalar covers the pairwise fast path and the
// generic path at small and universe-sized ranges.
func TestRangeBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 4} {
		h := NewKWise(rng, k)
		keys := make([]uint64, 100)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		for _, r := range []uint64{1, 7, 1 << 16, 1 << 44} {
			out := make([]uint64, len(keys))
			h.RangeBatch(keys, r, out)
			for j, x := range keys {
				if want := h.Range(x, r); out[j] != want {
					t.Fatalf("k=%d r=%d key %d: batch %d != scalar %d", k, r, x, out[j], want)
				}
			}
		}
	}
}

// TestFieldBatchK8Interleaved: the four-at-a-time k = 8 evaluator
// against per-key Field at every length around its stride — none, a
// tail only, whole groups, groups and a tail — and at keys the field
// reduction folds: p - 1, p, p + 1, 2p, 2^61, 2^62 and the top of the
// range.
func TestFieldBatchK8Interleaved(t *testing.T) {
	const p = nt.MersennePrime61
	rng := rand.New(rand.NewSource(29))
	edge := []uint64{p - 1, p, p + 1, 2 * p, 2*p + 1, 1 << 61, 1 << 62, 1<<63 + 5, ^uint64(0), ^uint64(0) - p}
	for trial := 0; trial < 50; trial++ {
		h := NewKWise(rng, 8)
		for n := 0; n <= 9; n++ {
			keys, out := make([]uint64, n), make([]uint64, n+1)
			for j := range keys {
				if keys[j] = rng.Uint64(); trial%2 == 0 {
					keys[j] = edge[(trial+n+j)%len(edge)]
				}
			}
			out[n] = 12345 // one past the column: never written
			h.FieldBatch(keys, out)
			for j, x := range keys {
				if want := h.Field(x); out[j] != want || want != h.FieldReference(x) {
					t.Fatalf("n=%d key %d: batch %d, Field %d, reference %d", n, x, out[j], want, h.FieldReference(x))
				}
			}
			if out[n] != 12345 {
				t.Fatalf("n=%d: FieldBatch wrote past its column", n)
			}
		}
	}
}
