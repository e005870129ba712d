package sparse

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestMergeMatchesSingleStream: the IBLT is linear, so merging
// same-seed sketches of split vectors decodes exactly the combined
// vector — and the cells are bit-identical to a single-stream sketch.
func TestMergeMatchesSingleStream(t *testing.T) {
	const seed = 89
	whole := NewRecovery(rand.New(rand.NewSource(seed)), 32, 1<<20)
	a := NewRecovery(rand.New(rand.NewSource(seed)), 32, 1<<20)
	b := NewRecovery(rand.New(rand.NewSource(seed)), 32, 1<<20)
	want := map[uint64]int64{}
	for i := uint64(0); i < 20; i++ {
		d := int64(i%5) - 2
		if d == 0 {
			d = 7
		}
		whole.Update(i*31, d)
		want[i*31] += d
		if i%2 == 0 {
			a.Update(i*31, d)
		} else {
			b.Update(i*31, d)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := range whole.cells {
		if a.cells[i] != whole.cells[i] {
			t.Fatalf("cell %d: merged %+v, single-stream %+v", i, a.cells[i], whole.cells[i])
		}
	}
	got, err := a.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if v == 0 {
			delete(want, k)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged decode %v, want %v", got, want)
	}
}

// TestMergeRejectsMismatches: a sketch of another capacity or a nil one
// is an error. (Whether two sketches share a seed is their owner's
// Config check.)
func TestMergeRejectsMismatches(t *testing.T) {
	a := NewRecovery(rand.New(rand.NewSource(1)), 16, 1<<10)
	if err := a.Merge(NewRecovery(rand.New(rand.NewSource(1)), 8, 1<<10)); err == nil {
		t.Fatal("merging different capacities should fail")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("merging nil should fail")
	}
}

// TestCloneIsolated.
func TestCloneIsolated(t *testing.T) {
	r := NewRecovery(rand.New(rand.NewSource(3)), 8, 1<<10)
	r.Update(5, 2)
	c := r.CloneInto(nil)
	c.Update(6, 3)
	got, err := r.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[5] != 2 {
		t.Fatalf("original decode %v, want map[5:2]", got)
	}
	cgot, err := c.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(cgot) != 2 {
		t.Fatalf("clone decode %v, want two entries", cgot)
	}
}

// TestMergedCountersCharged: two sketches holding 1000 of one key merge
// to cells of 2000, charged as a sketch fed 2000 at once is charged.
func TestMergedCountersCharged(t *testing.T) {
	a, b, whole := NewRecovery(rand.New(rand.NewSource(3)), 16, 1<<10), NewRecovery(rand.New(rand.NewSource(3)), 16, 1<<10), NewRecovery(rand.New(rand.NewSource(3)), 16, 1<<10)
	a.Update(5, 1000)
	b.Update(5, 1000)
	whole.Update(5, 2000)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.maxCount != whole.maxCount || a.SpaceBits() != whole.SpaceBits() {
		t.Fatalf("merged maxCount %d (%d bits), fed at once %d (%d bits)", a.maxCount, a.SpaceBits(), whole.maxCount, whole.SpaceBits())
	}
}
