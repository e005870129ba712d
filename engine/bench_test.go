package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	bounded "repro"
)

// BenchmarkEngineIngest measures aggregate multi-producer UpdateBatch
// throughput through the engine on the Figure 1 heavy-hitters workload,
// across shard counts. ns/op is wall-clock per ingested update with S
// producers feeding S shards concurrently, flushed before the clock
// stops. Scaling with shard count requires cores: on a single-CPU host
// the curve is flat (the workers time-share). This is a probe; the
// curve of record is the `engine.shard_scaling` ledger row of bench/
// (bench/README.md, BENCHMARK.json).
func BenchmarkEngineIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchEngineIngest(b, shards)
		})
	}
}

func benchEngineIngest(b *testing.B, shards int) {
	s, _ := fig1Stream(42)
	const chunk = 2048
	var chunks [][]bounded.Update
	for off := 0; off < len(s.Updates); off += chunk {
		end := off + chunk
		if end > len(s.Updates) {
			end = len(s.Updates)
		}
		chunks = append(chunks, s.Updates[off:end])
	}
	e, err := New(testCfg, Options{Shards: shards, BatchSize: 1024, Queue: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	producers := shards
	b.ReportMetric(float64(producers), "producers")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ReportAllocs()
	b.ResetTimer()
	var next, fed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if fed.Load() >= int64(b.N) {
					return
				}
				c := chunks[int(next.Add(1))%len(chunks)]
				if err := e.Ingest(c); err != nil {
					b.Error(err)
					return
				}
				fed.Add(int64(len(c)))
			}
		}()
	}
	wg.Wait()
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	// Normalize ns/op to the updates actually ingested (the chunked
	// producers overshoot b.N by at most producers*chunk updates).
	b.ReportMetric(float64(fed.Load())/float64(b.N), "updatesPerOp")
}

// BenchmarkEngineQueryIngestInterleave is the regression benchmark for
// the query/ingest interleave cost: one producer keeps ingesting while
// the bench goroutine queries after every chunk. "point" uses the
// snapshot-free per-shard Estimate; "global" rebuilds (or reuses) the
// merged view through the generation-tagged cache, which is checked
// before the engine mutex — so neither query flavor stalls the
// producer's partitioning. ns/op is per query+chunk round.
func BenchmarkEngineQueryIngestInterleave(b *testing.B) {
	s, _ := fig1Stream(42)
	const chunk = 512
	run := func(b *testing.B, query func(e *Engine) error) {
		e, err := New(testCfg, Options{Shards: 4, BatchSize: 256, Queue: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		b.ReportAllocs()
		b.ResetTimer()
		off := 0
		for i := 0; i < b.N; i++ {
			end := off + chunk
			if end > len(s.Updates) {
				off, end = 0, chunk
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				b.Fatal(err)
			}
			off = end
			if err := query(e); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(e.Stats().SnapshotBuilds)/float64(b.N), "snapshots/op")
	}
	b.Run("point", func(b *testing.B) {
		run(b, func(e *Engine) error {
			_, err := e.Estimate(uint64(b.N) % (1 << 16))
			return err
		})
	})
	b.Run("global", func(b *testing.B) {
		run(b, func(e *Engine) error {
			_, err := e.HeavyHitters()
			return err
		})
	})
}

// BenchmarkEngineEstimateBatch is the regression benchmark for the
// batched snapshot-free point-query path: one producer keeps ingesting
// (the interleave keeps every query paying the early hand-off and the
// shard-goroutine crossing, as in production) while the bench
// goroutine reads a fixed index set after every chunk — "batched"
// through one EstimateBatch call, "scalar" through a loop of Estimate.
// The acceptance ratio is per-INDEX: batched must amortize the
// per-query shard crossing across the batch, >= 2x over the scalar
// loop at batch >= 256. Only the query side is on the clock (the
// ingest chunk runs between StopTimer/StartTimer), so ns/op is the
// cost of one full index-set read; divide by indexes/op for the
// per-index cost the regression gate compares. snapshots/op must stay
// 0 for both flavors.
func BenchmarkEngineEstimateBatch(b *testing.B) {
	s, _ := fig1Stream(42)
	const chunk = 512
	run := func(b *testing.B, size int, query func(e *Engine, idxs []uint64) error) {
		idxs := make([]uint64, size)
		for j := range idxs {
			idxs[j] = uint64(j*2654435761) % (1 << 16)
		}
		e, err := New(testCfg, Options{Shards: 4, BatchSize: 256, Queue: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		b.ReportAllocs()
		b.ResetTimer()
		off := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			end := off + chunk
			if end > len(s.Updates) {
				off, end = 0, chunk
			}
			if err := e.Ingest(s.Updates[off:end]); err != nil {
				b.Fatal(err)
			}
			off = end
			b.StartTimer()
			if err := query(e, idxs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(size), "indexes/op")
		b.ReportMetric(float64(e.Stats().SnapshotBuilds)/float64(b.N), "snapshots/op")
	}
	for _, size := range []int{4, 8, 16, 64, 128, 256, 512, 4096} {
		size := size
		b.Run(fmt.Sprintf("batched/size=%d", size), func(b *testing.B) {
			run(b, size, func(e *Engine, idxs []uint64) error {
				_, err := e.EstimateBatch(idxs)
				return err
			})
		})
		b.Run(fmt.Sprintf("scalar/size=%d", size), func(b *testing.B) {
			run(b, size, func(e *Engine, idxs []uint64) error {
				for _, i := range idxs {
					if _, err := e.Estimate(i); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// BenchmarkEngineGlobalRead charges one global read at a fresh
// generation on bench/'s ingest-rate1 Config (heavy hitters only): each
// op ingests ONE update, so the cached view is stale, and asks
// HeavyHitters. B/op and minflt/op (minor page faults, Linux) are the
// reading; state-B is what one clone of the structure allocates. At one
// shard the read runs on the live structure and copies nothing, so CI
// holds B/op under 0.02 x state-B; at two it rebuilds its row in the
// storage of the last one, and CI holds B/op under 0.1 x state-B — a
// fresh clone per read is 1 x.
func BenchmarkEngineGlobalRead(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchGlobalRead(b, shards)
		})
	}
}

func benchGlobalRead(b *testing.B, shards int) {
	cfg := bounded.Config{N: 1 << 20, Eps: 0.02, Alpha: 64, Seed: 20180610}
	s, _ := fig1Stream(42)
	e := must(New(cfg, Options{Shards: shards}))
	defer e.Close()
	if err := e.Ingest(s.Updates); err != nil {
		b.Fatal(err)
	}
	if _, err := e.HeavyHitters(); err != nil {
		b.Fatal(err)
	}
	hh := must(bounded.NewHeavyHitters(cfg))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hh.Clone()
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	b.ResetTimer()
	faults, measured := minorFaults()
	var hashes int64
	for i := 0; i < b.N; i++ {
		if err := e.Ingest(s.Updates[i%len(s.Updates) : i%len(s.Updates)+1]); err != nil {
			b.Fatal(err)
		}
		// The read would hand the pending update to its shard first; a
		// flush applies it (and its hash pass) here, so the count below
		// is the read's own.
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		before := bucketSigns()
		if _, err := e.HeavyHitters(); err != nil {
			b.Fatal(err)
		}
		hashes += bucketSigns() - before
	}
	b.StopTimer()
	if end, ok := minorFaults(); ok && measured {
		b.ReportMetric(float64(end-faults)/float64(b.N), "minflt/op")
	}
	b.ReportMetric(float64(hashes)/float64(b.N), "bucket-signs/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc), "state-B")
}

// BenchmarkSingleWriterBaseline is the same workload through one
// bounded.HeavyHitters on the bench goroutine — the no-engine reference
// point for the shards=1 overhead and the scaling ratio.
func BenchmarkSingleWriterBaseline(b *testing.B) {
	s, _ := fig1Stream(42)
	hh := must(bounded.NewHeavyHitters(testCfg))
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 2048
	for done := 0; done < b.N; {
		for off := 0; off < len(s.Updates) && done < b.N; off += chunk {
			end := off + chunk
			if end > len(s.Updates) {
				end = len(s.Updates)
			}
			if take := b.N - done; end-off > take {
				end = off + take
			}
			hh.UpdateBatch(s.Updates[off:end])
			done += end - off
		}
	}
}
