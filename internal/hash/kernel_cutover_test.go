package hash

import (
	"math/rand"
	"testing"
)

// TestKernelCutoverAccessors pins the public cutover surface: the map
// names every family and reads the live bars, and the source string is
// one of the two documented values.
func TestKernelCutoverAccessors(t *testing.T) {
	m := KernelCutovers()
	if len(m) != int(famCount) {
		t.Fatalf("KernelCutovers() has %d entries, want %d", len(m), famCount)
	}
	for _, name := range familyNames {
		v, ok := m[name]
		if !ok {
			t.Fatalf("KernelCutovers() missing family %q", name)
		}
		if v < 1 {
			t.Fatalf("KernelCutovers()[%q] = %d, want >= 1", name, v)
		}
	}
	switch src := KernelCutoverSource(); src {
	case "default", "calibrated":
	default:
		t.Fatalf("KernelCutoverSource() = %q, want default/calibrated", src)
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
