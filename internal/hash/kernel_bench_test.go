package hash

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks, parameterized by registered kernel table so
// one run produces the scalar-vs-vector comparison in the same
// process. ns/key is the headline metric: total kernel time divided by
// keys processed (buckets amortize rows into each key).

func benchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(97))
	keys := make([]uint64, n)
	for j := range keys {
		keys[j] = rng.Uint64()
	}
	return keys
}

func forEachKernel(b *testing.B, run func(b *testing.B)) {
	prev := KernelName()
	defer SetKernel(prev)
	for _, name := range AvailableKernels() {
		b.Run("kernel="+name, func(b *testing.B) {
			if err := SetKernel(name); err != nil {
				b.Fatal(err)
			}
			run(b)
		})
	}
}

func BenchmarkBucketSignsBatch(b *testing.B) {
	// The grid straddles the calibrated cutovers from both sides: with
	// 7 rows the fused table compares 7n against the bucket_signs bar
	// (so even n=64 can go vector once calibration drops the bar).
	// 1024 and 4096 amortize the vector entry cost to different
	// degrees.
	const rows = 7
	for _, n := range []int{64, 128, 256, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			bk := NewBuckets(rng, rows, 6*1024)
			keys := benchKeys(n)
			cols := make([]uint32, rows*n)
			signs := make([]int8, rows*n)
			forEachKernel(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.BucketSignsBatch(keys, cols, signs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
		})
	}
}

func BenchmarkFieldBatchK4(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(5))
	h := NewFourWise(rng)
	keys := benchKeys(n)
	out := make([]uint64, n)
	forEachKernel(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.FieldBatch(keys, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
	})
}

func BenchmarkRangeBatchK2(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(7))
	h := NewPairwise(rng)
	keys := benchKeys(n)
	out := make([]uint64, n)
	forEachKernel(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.RangeBatch(keys, 1<<60, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
	})
}

func BenchmarkGatherSignInt64(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(9))
	row := make([]int64, 6*1024)
	for i := range row {
		row[i] = rng.Int63() - rng.Int63()
	}
	idx := make([]uint32, n)
	signs := make([]int8, n)
	for j := range idx {
		idx[j] = uint32(rng.Intn(len(row)))
		signs[j] = 1 - int8(rng.Intn(2))<<1
	}
	out := make([]int64, n)
	forEachKernel(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GatherSignRows(row, len(row), 1, idx, signs, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
	})
}

func BenchmarkMedianOf7Cols(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(11))
	est := make([]float64, 7*n)
	for i := range est {
		est[i] = rng.NormFloat64()
	}
	out := make([]float64, n)
	forEachKernel(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MedianOf7Columns(est, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
	})
}
