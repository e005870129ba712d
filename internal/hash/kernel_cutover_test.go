package hash

import (
	"maps"
	"math/rand"
	"testing"
)

// TestKernelCutoverAccessors pins the public cutover surface to the
// fixed table: every family at its reference-host crossover, reported
// as "default" on every build, and the map reads the live bars.
func TestKernelCutoverAccessors(t *testing.T) {
	want := map[string]int{"bucket_signs": 128, "field": 256, "range": 512, "gather": 32, "median": 32}
	if got := KernelCutovers(); !maps.Equal(got, want) {
		t.Fatalf("KernelCutovers() = %v, want %v", got, want)
	}
	if src := KernelCutoverSource(); src != "default" {
		t.Fatalf("KernelCutoverSource() = %q, want default", src)
	}

	prev := cutoverValues[famGather]
	defer func() { cutoverValues[famGather] = prev }()
	cutoverValues[famGather] = 77
	if got := KernelCutovers()["gather"]; got != 77 {
		t.Fatalf("KernelCutovers()[gather] = %d with the bar at 77", got)
	}
}

// TestBatchZeroLengthNoDispatch pins satellite behavior: a zero-length
// sweep returns before touching the dispatch tallies, so obs ratios
// describe real dispatches only.
func TestBatchZeroLengthNoDispatch(t *testing.T) {
	before := KernelDispatchStats()
	rng := rand.New(rand.NewSource(41))
	b := NewBuckets(rng, 5, 1024)
	b.BucketSignsBatch(nil, nil, nil)
	h := NewFourWise(rng)
	h.FieldBatch(nil, nil)
	h.RangeBatch(nil, 64, nil)
	GatherSignRows(nil, 0, 1, nil, nil, nil)
	GatherSignDiffRows(nil, 0, 1, nil, nil, nil)
	MedianOf7Columns(nil, nil)
	if after := KernelDispatchStats(); after != before {
		t.Fatalf("zero-length sweeps moved dispatch stats: before %+v, after %+v", before, after)
	}
}
