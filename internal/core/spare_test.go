package core

import (
	"runtime"
	"testing"
)

// TestSpareLendsOneColumn: a column given back is the next Take's, at
// no allocation; a second Take while it is lent gets a column of its
// own; and a collection frees the column nobody holds.
func TestSpareLendsOneColumn(t *testing.T) {
	var s Spare[uint64]
	p := s.Take(100)
	if len(*p) != 100 {
		t.Fatalf("Take(100) lent %d entries", len(*p))
	}
	if q := s.Take(10); q == p {
		t.Fatal("a Take while the column is lent got the lent column")
	}
	s.Give(p)
	if allocs := testing.AllocsPerRun(100, func() { s.Give(s.Take(100)) }); allocs != 0 {
		t.Fatalf("a Take and Give of the spare column allocated %v times", allocs)
	}
	if q := s.Take(50); q != p || len(*q) != 50 {
		t.Fatalf("Take after Give lent another column (or %d entries)", len(*q))
	}
	s.Give(p)
	runtime.GC()
	if s.col.Value() != nil {
		t.Fatal("a collection left the spare column nobody holds")
	}
}
