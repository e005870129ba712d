package l0

import (
	"math/rand"
	"testing"

	"repro/internal/wire/wiretest"
)

func TestExactSmallMarshalRoundTrip(t *testing.T) {
	e := NewExactSmall(rand.New(rand.NewSource(1)), 50)
	for i := uint64(0); i < 30; i++ {
		e.Update(i, int64(i)+1)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &ExactSmall{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	a, aok := e.Count()
	b, bok := restored.Count()
	if a != b || aok != bok {
		t.Fatalf("Count: restored (%d,%v), original (%d,%v)", b, bok, a, aok)
	}
	// Deletions keep cancelling correctly after the round trip.
	for i := uint64(0); i < 30; i++ {
		restored.Update(i, -int64(i)-1)
	}
	if n, ok := restored.Count(); !ok || n != 0 {
		t.Fatalf("restored structure did not cancel to zero: (%d,%v)", n, ok)
	}
}

func TestRoughF0MarshalRoundTrip(t *testing.T) {
	r := NewRoughF0(rand.New(rand.NewSource(2)), 8)
	for i := uint64(0); i < 5000; i++ {
		r.Update(i)
	}
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &RoughF0{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Estimate() != r.Estimate() {
		t.Fatalf("Estimate differs: %d vs %d", restored.Estimate(), r.Estimate())
	}
	if err := restored.Merge(r.CloneInto(nil)); err != nil {
		t.Fatalf("merge of restored RoughF0 rejected: %v", err)
	}
}

// TestRoughL0MarshalRoundTrip: the v2 encoding and the parent's v1 one
// (a windowed v1 payload embeds its R_t) restore the same levels.
func TestRoughL0MarshalRoundTrip(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		r := newSolo(rand.New(rand.NewSource(3)), 1<<12, windowed, 8)
		for i := uint64(0); i < 2000; i++ {
			r.Update(i, 1)
		}
		for version, data := range [][]byte{wiretest.MustMarshal(t, r), wiretest.MustMarshal(t, r.RoughL0)} {
			restored := &RoughL0{}
			if err := restored.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if restored.Estimate() != r.Estimate() {
				t.Fatalf("windowed=%v v%d: Estimate differs: %d vs %d", windowed, version+1, restored.Estimate(), r.Estimate())
			}
			if restored.LiveLevels() != r.LiveLevels() {
				t.Fatalf("windowed=%v v%d: LiveLevels differs", windowed, version+1)
			}
			var rt int64
			if windowed {
				rt = r.rough.Estimate()
			}
			if err := restored.Merge(r.RoughL0.CloneInto(nil), rt); err != nil {
				t.Fatalf("windowed=%v v%d: merge of restored RoughL0 rejected: %v", windowed, version+1, err)
			}
		}
	}
}

func TestEstimatorMarshalRoundTrip(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		e := NewEstimator(rand.New(rand.NewSource(4)), Params{
			N: 1 << 12, Eps: 0.25, Windowed: windowed, Window: RecommendedWindow(4, 0.25),
		})
		for i := uint64(0); i < 3000; i++ {
			e.Update(i%1500, 1)
		}
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := &Estimator{}
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if restored.Estimate() != e.Estimate() {
			t.Fatalf("windowed=%v: Estimate differs: %v vs %v", windowed, restored.Estimate(), e.Estimate())
		}
		if restored.LiveRows() != e.LiveRows() || restored.SpaceBits() != e.SpaceBits() {
			t.Fatalf("windowed=%v: shape differs after round trip", windowed)
		}
		// Restored instances keep ingesting identically: feed both the
		// same suffix and compare.
		for i := uint64(0); i < 500; i++ {
			e.Update(i, -1)
			restored.Update(i, -1)
		}
		if restored.Estimate() != e.Estimate() {
			t.Fatalf("windowed=%v: post-restore ingest diverged", windowed)
		}
		if err := restored.Merge(e.CloneInto(nil)); err != nil {
			t.Fatalf("windowed=%v: merge of restored Estimator rejected: %v", windowed, err)
		}
	}
}

func TestL0UnmarshalRejectsGarbage(t *testing.T) {
	e := NewEstimator(rand.New(rand.NewSource(5)), Params{N: 256, Eps: 0.3})
	e.Update(1, 1)
	data, _ := e.MarshalBinary()
	fresh := &Estimator{}
	if err := fresh.UnmarshalBinary(nil); err == nil {
		t.Error("accepted nil")
	}
	if err := fresh.UnmarshalBinary(data[:len(data)/2]); err == nil {
		t.Error("accepted truncated payload")
	}
	bad := append([]byte(nil), data...)
	bad[2] = 200
	if err := fresh.UnmarshalBinary(bad); err == nil {
		t.Error("accepted wrong version")
	}
}

// TestAppendBinaryMatchesMarshalBinary: all four structures obey the
// wire nesting rule and state their lengths exactly, windowed and not;
// the estimator — the one a public envelope holds — pays for one buffer.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	small := NewExactSmall(rand.New(rand.NewSource(1)), 50)
	rough := NewRoughF0(rand.New(rand.NewSource(2)), 8)
	for i := uint64(0); i < 5000; i++ {
		small.Update(i%30, int64(i)+1)
		rough.Update(i)
	}
	wiretest.CheckAppend(t, small)
	wiretest.CheckAppend(t, rough)
	for _, windowed := range []bool{false, true} {
		r := newSolo(rand.New(rand.NewSource(3)), 1<<12, windowed, 8)
		e := NewEstimator(rand.New(rand.NewSource(4)), Params{
			N: 1 << 12, Eps: 0.1, Windowed: windowed, Window: RecommendedWindow(4, 0.1),
		})
		for i := uint64(0); i < 3000; i++ {
			r.Update(i, 1)
			e.Update(i%1500, 1)
		}
		wiretest.CheckAppend(t, r.RoughL0)
		wiretest.CheckAppend(t, e)
		wiretest.CheckGrowsOnce(t, e)
	}
}
