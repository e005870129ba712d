package topk

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sorted returns the tracked items in ascending order.
func sorted(tr *Tracker) []uint64 {
	c := tr.Candidates()
	slices.Sort(c)
	return c
}

func TestKeepsLargest(t *testing.T) {
	tr := New(4) // retains 8
	for i := uint64(0); i < 1000; i++ {
		tr.Offer(i, float64(i))
	}
	if got, want := sorted(tr), []uint64{992, 993, 994, 995, 996, 997, 998, 999}; !slices.Equal(got, want) {
		t.Errorf("kept %v, want the top 8 %v", got, want)
	}
}

func TestNegativeMagnitudes(t *testing.T) {
	tr := New(1) // retains 2
	tr.Offer(1, -100)
	tr.Offer(2, 5)
	tr.Offer(3, 1)
	if got := sorted(tr); !slices.Equal(got, []uint64{1, 2}) {
		t.Errorf("|estimate| ordering wrong: kept %v, want [1 2]", got)
	}
}

func TestUpdatedEstimateResurrects(t *testing.T) {
	tr := New(1) // retains 2
	tr.Offer(7, 1)
	tr.Offer(8, 50)
	tr.Offer(7, 100) // re-sifts 7 above 8
	tr.Offer(9, 60)  // evicts the new minimum, 8
	if got := sorted(tr); !slices.Equal(got, []uint64{7, 9}) {
		t.Errorf("kept %v, want [7 9]: the re-offered item with the larger estimate must stay", got)
	}
}

func TestBoundedMemoryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(capRaw uint8, n uint16) bool {
		capacity := int(capRaw)%16 + 1
		tr := New(capacity)
		for i := 0; i < int(n); i++ {
			tr.Offer(rng.Uint64()%1000, rng.Float64()*100)
		}
		return tr.Len() <= 2*capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	tr := New(0)
	tr.Offer(1, 1)
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.SpaceBits(1<<20) <= 0 {
		t.Error("SpaceBits must be positive")
	}
}

// TestDeterministicTieBreak: among equal estimates the smallest indices
// stay, whatever the offer order.
func TestDeterministicTieBreak(t *testing.T) {
	for _, order := range [][]uint64{{5, 3, 9, 7}, {9, 7, 5, 3}, {7, 3, 9, 5}} {
		tr := New(1) // retains 2
		for _, i := range order {
			tr.Offer(i, 42)
		}
		if got := sorted(tr); !slices.Equal(got, []uint64{3, 5}) {
			t.Fatalf("offers %v kept %v, want [3 5]", order, got)
		}
	}
}

// TestIndexMatchesReference fuzzes the linear-probe index + heap against
// an unbounded latest-estimate map, checking after every offer that the
// index resolves every tracked id and at the end that every stored
// estimate is the latest offer.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(12)
		tr := New(capacity)
		ref := make(map[uint64]float64) // unbounded latest-estimate map
		for step := 0; step < 3000; step++ {
			id := rng.Uint64() % 200
			est := rng.NormFloat64() * 100
			tr.Offer(id, est)
			ref[id] = est

			// Invariants: bounded size, and every tracked id resolves
			// through the index to a heap slot holding that id.
			if tr.Len() > 2*capacity {
				t.Fatalf("Len %d exceeds limit %d", tr.Len(), 2*capacity)
			}
			// The slab slots are a permutation of [0, Len()): nothing
			// frees a slot but an eviction, which hands it on.
			seen := make([]bool, tr.Len())
			for slot, e := range tr.heap {
				if got := tr.idxFind(e.id); int(got) != slot {
					t.Fatalf("index maps %d to slot %d, heap has it at %d", e.id, got, slot)
				}
				if int(e.slot) >= len(seen) || seen[e.slot] {
					t.Fatalf("slab slot %d of %d is out of [0, %d) or taken twice", e.slot, e.id, tr.Len())
				}
				seen[e.slot] = true
			}
		}
		// Every tracked item's stored estimate must be its latest offer.
		for _, e := range tr.heap {
			if ref[e.id] != e.est {
				t.Fatalf("tracked %d holds est %v, latest offer was %v", e.id, e.est, ref[e.id])
			}
		}
	}
}

// TestOfferEvictsGlobalMinimum: once full, an offer above the floor must
// evict exactly the heap minimum (smallest |est|, largest id on ties).
func TestOfferEvictsGlobalMinimum(t *testing.T) {
	tr := New(2) // limit 4
	for i := uint64(1); i <= 4; i++ {
		tr.Offer(i, float64(10*i))
	}
	tr.Offer(9, 15) // beats the floor (10 @ id 1): id 1 must go
	if got := tr.idxFind(1); got >= 0 {
		t.Error("minimum entry was not evicted")
	}
	if got := tr.idxFind(9); got < 0 {
		t.Error("new entry above the floor was dropped")
	}
	tr.Offer(8, 1) // below the floor (15): dropped
	if got := tr.idxFind(8); got >= 0 {
		t.Error("below-floor entry was admitted")
	}
}
