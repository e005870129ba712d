package topk

import (
	"slices"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestTrackerMarshalRoundTrip(t *testing.T) {
	tr := New(8)
	for i := uint64(0); i < 40; i++ {
		tr.Offer(i, float64(i)*1.5-20)
	}
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := wiretest.Restore(t, New(8), data)
	if restored.Capacity() != tr.Capacity() || restored.Len() != tr.Len() {
		t.Fatalf("shape: restored (%d,%d), original (%d,%d)",
			restored.Capacity(), restored.Len(), tr.Capacity(), tr.Len())
	}
	want := map[uint64]bool{}
	for _, id := range tr.Candidates() {
		want[id] = true
	}
	for _, id := range restored.Candidates() {
		if !want[id] {
			t.Fatalf("restored tracks %d, original does not", id)
		}
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("restored lost candidates: %v", want)
	}
	// The restored tracker keeps evicting correctly.
	restored.Offer(999, 1e9)
	found := false
	for _, id := range restored.Candidates() {
		if id == 999 {
			found = true
		}
	}
	if !found {
		t.Fatal("restored tracker dropped a dominant offer")
	}
}

// TestTrackerIDsPackAsCounts: the ids travel as a count column — item
// indices below 2^16 take two bytes each, one wide id is patched in —
// and the estimates a word each.
func TestTrackerIDsPackAsCounts(t *testing.T) {
	tr := New(64)
	for i := uint64(0); i < 64; i++ {
		tr.Offer(1000+i, float64(i))
	}
	data := wiretest.MustMarshal(t, tr)
	if want := 4 + wire.MinColumnLen(64) + 64 + 8*64; len(data) != want || data[4] != 0x22 {
		t.Fatalf("64 ids below 2^16: %d bytes at widths % x, want %d at 22", len(data), data[4], want)
	}
	tr.Offer(1<<40, 1e9)
	n := tr.Len()
	data = wiretest.MustMarshal(t, tr)
	if want := 4 + wire.MinColumnLen(n) + n + 4 + 4 + 4 + 8*n; len(data) != want || data[4] != 0x62 {
		t.Fatalf("one wide id: %d bytes at widths % x, want %d at 62", len(data), data[4], want)
	}
	restored := wiretest.Restore(t, New(64), data)
	if got := restored.Candidates(); len(got) != n || !slices.Contains(got, 1<<40) {
		t.Fatalf("the wide id did not round trip: %v", got)
	}
}

func TestTrackerUnmarshalRejectsGarbage(t *testing.T) {
	tr := New(4)
	tr.Offer(1, 10)
	data, _ := tr.MarshalBinary()
	if err := wire.Fill(nil, New(4)); err == nil {
		t.Error("accepted nil")
	}
	if err := wire.Fill(data[:len(data)-3], New(4)); err == nil {
		t.Error("accepted truncated payload")
	}
	// Duplicate entries are rejected (a valid payload never carries them).
	dup := New(4)
	dup.Offer(7, 1)
	d, _ := dup.MarshalBinary()
	// Append a second copy of the same entry by hand-editing the count.
	d2 := append([]byte{2, 0, 0, 0}, d[4:]...) // entry count u32 -> 2
	d2 = append(d2, d[4:]...)                  // repeat the (id, est) pair
	if err := wire.Fill(d2, New(4)); err == nil {
		t.Error("accepted duplicate ids")
	}
	// More entries than the capacity's 2x retention are refused unread.
	many := New(64)
	for i := uint64(0); i < 20; i++ {
		many.Offer(i, float64(i))
	}
	if err := wire.Fill(wiretest.MustMarshal(t, many), New(4)); err == nil {
		t.Error("accepted more entries than the tracker retains")
	}
}

// TestAppendBinaryMatchesMarshalBinary: the tracker obeys the wire
// nesting rule and states its length exactly, empty or full.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	tr := New(8)
	wiretest.CheckAppend(t, tr)
	for i := uint64(0); i < 40; i++ {
		tr.Offer(i, float64(i)*1.5-20)
	}
	wiretest.CheckAppend(t, tr)
}
