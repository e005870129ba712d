package bounded

import (
	"strings"
	"testing"
)

// TestSyncSketchZeroValueRoundTrip is the regression test for the
// zero-value receiver path: a receiver that was never built with
// NewSyncSketch must restore from the wire with UnmarshalBinary and
// then run the whole SubRemote/Decode exchange.
func TestSyncSketchZeroValueRoundTrip(t *testing.T) {
	cfg := Config{N: 1 << 16, Eps: 0.1, Alpha: 2, Seed: 77}
	local := must(NewSyncSketch(cfg, WithCapacity(32)))
	remote := must(NewSyncSketch(cfg, WithCapacity(32)))
	// Shared history plus a small divergence.
	for i := uint64(0); i < 20; i++ {
		local.Update(i*13, 2)
		remote.Update(i*13, 2)
	}
	remote.Update(999, 5)
	remote.Update(1001, -3)

	remoteWire, err := remote.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	localWire, err := local.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// The receive side: zero value, no NewSyncSketch.
	var z SyncSketch
	if err := z.UnmarshalBinary(remoteWire); err != nil {
		t.Fatalf("zero-value UnmarshalBinary: %v", err)
	}
	if err := z.SubRemote(localWire); err != nil {
		t.Fatalf("SubRemote after zero-value restore: %v", err)
	}
	diff, err := z.Decode()
	if err != nil {
		t.Fatalf("Decode after zero-value restore: %v", err)
	}
	if len(diff) != 2 || diff[999] != 5 || diff[1001] != -3 {
		t.Fatalf("decoded diff %v, want map[999:5 1001:-3]", diff)
	}
	// The restored sketch re-serializes identically after Decode
	// restored its state.
	again, err := z.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_ = again
	if z.SpaceBits() <= 0 {
		t.Error("restored sketch reports nonpositive space")
	}
}

// TestSyncSketchZeroValueErrors: before any restore, SubRemote and
// Decode fail with a descriptive error instead of panicking, and a
// failed UnmarshalBinary leaves the receiver untouched.
func TestSyncSketchZeroValueErrors(t *testing.T) {
	var z SyncSketch
	if err := z.SubRemote([]byte("SR garbage")); err == nil ||
		!strings.Contains(err.Error(), "zero-value") {
		t.Errorf("SubRemote on zero value: got %v, want zero-value error", err)
	}
	if _, err := z.Decode(); err == nil || !strings.Contains(err.Error(), "zero-value") {
		t.Errorf("Decode on zero value: got %v, want zero-value error", err)
	}
	if err := z.UnmarshalBinary([]byte("not a sketch")); err == nil {
		t.Error("UnmarshalBinary accepted garbage")
	}
	// Still the zero value: the failed restore must not have installed
	// a half-initialized sketch.
	if err := z.SubRemote(nil); err == nil || !strings.Contains(err.Error(), "zero-value") {
		t.Errorf("receiver no longer zero value after failed restore: %v", err)
	}
}

// TestSyncSketchRefusesBareFrame: the sparse-recovery frame a sync
// sketch's envelope carries is not itself a sync sketch. Offered without
// the "BD" envelope, UnmarshalBinary and SubRemote both refuse it with an
// error naming the envelope, and neither receiver changes.
func TestSyncSketchRefusesBareFrame(t *testing.T) {
	cfg := Config{N: 1 << 16, Eps: 0.1, Alpha: 2, Seed: 79}
	s := must(NewSyncSketch(cfg, WithCapacity(32)))
	s.Update(42, 3)
	enveloped := must(s.MarshalBinary())
	bare := enveloped[stateAt(t, enveloped):]
	var z SyncSketch
	if err := z.UnmarshalBinary(bare); err == nil || !strings.Contains(err.Error(), "envelope") {
		t.Errorf("UnmarshalBinary of a bare SR frame: got %v, want an error naming the envelope", err)
	}
	if err := z.SubRemote(nil); err == nil || !strings.Contains(err.Error(), "zero-value") {
		t.Errorf("the refused frame was installed: %v", err)
	}
	if err := s.SubRemote(bare); err == nil || !strings.Contains(err.Error(), "envelope") {
		t.Errorf("SubRemote of a bare SR frame: got %v, want an error naming the envelope", err)
	}
	if string(must(s.MarshalBinary())) != string(enveloped) {
		t.Error("a refused SubRemote changed the sketch")
	}
}

// TestSyncSketchMerge: shard-local sketches of an index partition merge
// into the sketch of the full stream — byte-identical wire format.
func TestSyncSketchMerge(t *testing.T) {
	cfg := Config{N: 1 << 16, Eps: 0.1, Alpha: 2, Seed: 78}
	whole := must(NewSyncSketch(cfg, WithCapacity(32)))
	a := must(NewSyncSketch(cfg, WithCapacity(32)))
	b := must(NewSyncSketch(cfg, WithCapacity(32)))
	for i := uint64(0); i < 24; i++ {
		d := int64(i%7) - 3
		if d == 0 {
			d = 1
		}
		whole.Update(i*101, d)
		if i%2 == 0 {
			a.Update(i*101, d)
		} else {
			b.Update(i*101, d)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	wa, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ww, err := whole.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(wa) != string(ww) {
		t.Fatal("merged sketch wire bytes differ from single-stream sketch")
	}
	var zero SyncSketch
	if err := zero.Merge(a); err == nil {
		t.Error("Merge into zero-value SyncSketch should fail")
	}
}

// TestSubRemoteRejectsForeign: SubRemote subtracts only a peer's sketch
// built from the same Config and capacity — a blob carries no hash
// functions to compare, so its echo is what is checked — and a refused
// one leaves the receiver's bytes alone.
func TestSubRemoteRejectsForeign(t *testing.T) {
	cfg := Config{N: 1 << 16, Eps: 0.1, Alpha: 2, Seed: 79}
	a := must(NewSyncSketch(cfg, WithCapacity(8)))
	a.Update(3, 1)
	before := must(a.MarshalBinary())
	foreign := cfg
	foreign.Seed++
	for name, peer := range map[string]*SyncSketch{
		"another seed":     must(NewSyncSketch(foreign, WithCapacity(8))),
		"another capacity": must(NewSyncSketch(cfg, WithCapacity(9))),
	} {
		if err := a.SubRemote(must(peer.MarshalBinary())); err == nil {
			t.Errorf("%s: SubRemote accepted the peer's sketch", name)
		}
	}
	if string(must(a.MarshalBinary())) != string(before) {
		t.Error("a refused SubRemote changed the receiver")
	}
}
