package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/hash"
)

const (
	// probeBatches is how many batches of the segment the stage probes
	// replay; probeBatchLen is the engine's default per-shard hand-off
	// length, the column length the structures see in production.
	probeBatches  = 256
	probeBatchLen = 1024
	// sketchRows is the CSSS depth every heavy hitters structure uses.
	sketchRows = 7
)

// stageProbes times the layers below the engine one at a time, on one
// goroutine: the plan stage, the hash batch evaluators at the workload's
// table geometry, and each structure's update, query and wire paths.
// Structures are restored from the system's own end-of-window snapshot,
// so they are probed in the regime the workload left them in.
func stageProbes(sp *spec, seg *segment, snapshot func(engine.Structures) ([]byte, error), shards int, pl map[string]float64) error {
	nb := min(probeBatches, len(seg.updates)/probeBatchLen)
	if nb == 0 {
		return nil // a test-scale segment shorter than one batch
	}
	updates := nb * probeBatchLen

	// core: plan the workload's own Ingest-sized batches.
	t := time.Now()
	planned := 0
	for off := 0; off+sp.batch <= updates; off += sp.batch {
		b := bounded.PlanBatch(seg.updates[off : off+sp.batch])
		planned += b.Len()
		bounded.PutBatch(b)
	}
	if planned > 0 {
		pl["core.plan_ns_per_update"] = float64(time.Since(t).Nanoseconds()) / float64(planned)
	}

	batches := make([]*bounded.Batch, nb)
	for i := range batches {
		batches[i] = bounded.PlanBatch(seg.updates[i*probeBatchLen : (i+1)*probeBatchLen])
	}
	defer func() {
		for _, b := range batches {
			bounded.PutBatch(b)
		}
	}()

	hashProbes(sp, batches, shards, pl)

	kinds := []struct {
		bit  engine.Structures
		name string
	}{
		{engine.HeavyHitters, "hh"}, {engine.L1Estimator, "l1"}, {engine.L0Estimator, "l0"}, {engine.SupportSampler, "support"},
	}
	for _, k := range kinds {
		if sp.structures&k.bit == 0 {
			continue
		}
		blob, err := snapshot(k.bit)
		if err != nil {
			return fmt.Errorf("stage probe: snapshot of %s: %w", k.name, err)
		}
		sk, err := bounded.UnmarshalSketch(blob)
		if err != nil {
			return fmt.Errorf("stage probe: restoring %s: %w", k.name, err)
		}
		pl["structures."+k.name+".space_bits"] = float64(sk.SpaceBits())
		if k.bit == engine.HeavyHitters {
			if err := heavyHittersProbes(sk, blob, seg, pl); err != nil {
				return err
			}
		}
		t := time.Now()
		for _, b := range batches {
			sk.UpdateColumns(b)
		}
		pl["structures."+k.name+".update_ns"] = float64(time.Since(t).Nanoseconds()) / float64(updates)
	}
	return nil
}

// hashProbes times the batch evaluators on fresh hash functions at the
// workload's geometry: 7 rows of 6*ceil(8/eps) columns, the per-shard
// batch length for updates and one shard's part of a point-query batch
// for reads.
func hashProbes(sp *spec, batches []*bounded.Batch, shards int, pl map[string]float64) {
	rng := rand.New(rand.NewSource(sketchSeed))
	cols := uint64(6 * int(math.Ceil(8/sp.cfg.Eps)))
	bk := hash.NewBuckets(rng, sketchRows, cols)
	n := probeBatchLen
	bcols, bsigns := make([]uint32, sketchRows*n), make([]int8, sketchRows*n)
	keys := float64(len(batches) * n)

	t := time.Now()
	for _, b := range batches {
		bk.BucketSignsBatch(b.Idx, bcols, bsigns)
	}
	pl["hash.bucket_signs_ns_per_key"] = float64(time.Since(t).Nanoseconds()) / keys

	part := hash.NewPairwise(rng)
	out := make([]uint64, n)
	t = time.Now()
	for _, b := range batches {
		part.RangeBatch(b.Idx, uint64(shards), out)
	}
	pl["hash.range_ns_per_key"] = float64(time.Since(t).Nanoseconds()) / keys

	q := max(1, readKeys/shards)
	cells := make([]int64, sketchRows*2*int(cols))
	for i := range cells {
		cells[i] = int64(i & 1023)
	}
	bk.BucketSignsBatch(batches[0].Idx[:q], bcols[:sketchRows*q], bsigns[:sketchRows*q])
	diff := make([]int64, sketchRows*q)
	const reps = 4096
	t = time.Now()
	for r := 0; r < reps; r++ {
		hash.GatherSignDiffRows(cells, 2*int(cols), sketchRows, bcols[:sketchRows*q], bsigns[:sketchRows*q], diff)
	}
	pl["hash.gather_ns_per_key"] = float64(time.Since(t).Nanoseconds()) / float64(reps*q)

	est, med := make([]float64, sketchRows*q), make([]float64, q)
	for i, d := range diff {
		est[i] = float64(d)
	}
	t = time.Now()
	for r := 0; r < reps; r++ {
		hash.MedianOf7Columns(est, med)
	}
	pl["hash.median7_ns_per_col"] = float64(time.Since(t).Nanoseconds()) / float64(reps*q)
}

// heavyHittersProbes times the heavy hitters structure's read and wire
// paths on the restored end-of-window state.
func heavyHittersProbes(sk bounded.Sketch, blob []byte, seg *segment, pl map[string]float64) error {
	pq, ok := sk.(bounded.BatchPointQuerier)
	if !ok {
		return fmt.Errorf("stage probe: %T answers no batched point queries", sk)
	}
	sets := keySets(probeKeys(seg, 0, probeCount))
	t := time.Now()
	for _, set := range sets {
		pq.EstimateBatch(set)
	}
	pl["structures.hh.estimate_ns_per_key"] = float64(time.Since(t).Nanoseconds()) / float64(len(sets)*readKeys)

	set, ok := sk.(bounded.SetQuerier)
	if !ok {
		return fmt.Errorf("stage probe: %T answers no set queries", sk)
	}
	const reps = 5
	var query, marshal, unmarshal, merge []float64
	for r := 0; r < reps; r++ {
		t = time.Now()
		set.Members()
		query = append(query, time.Since(t).Seconds())

		t = time.Now()
		if _, err := sk.MarshalBinary(); err != nil {
			return fmt.Errorf("stage probe: marshal: %w", err)
		}
		marshal = append(marshal, time.Since(t).Seconds())

		t = time.Now()
		peer, err := bounded.UnmarshalSketch(blob)
		if err != nil {
			return fmt.Errorf("stage probe: unmarshal: %w", err)
		}
		unmarshal = append(unmarshal, time.Since(t).Seconds())

		into := sk.Clone()
		t = time.Now()
		if err := into.Merge(peer); err != nil {
			return fmt.Errorf("stage probe: merge: %w", err)
		}
		merge = append(merge, time.Since(t).Seconds())
	}
	pl["structures.hh.query_us"] = median(query) * 1e6
	pl["structures.hh.marshal_us"] = median(marshal) * 1e6
	pl["structures.hh.unmarshal_us"] = median(unmarshal) * 1e6
	pl["structures.hh.merge_us"] = median(merge) * 1e6
	pl["structures.hh.wire_bytes"] = float64(len(blob))
	return nil
}
