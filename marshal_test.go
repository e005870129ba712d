package bounded

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/topk"
	"repro/internal/wire/wiretest"
)

// TestMergeRejectsWrongKind: the Sketch-interface Merge refuses a
// different concrete type with a descriptive error.
func TestMergeRejectsWrongKind(t *testing.T) {
	cfg := Config{N: 1 << 10, Eps: 0.1, Alpha: 2, Seed: 1}
	hh, err := NewHeavyHitters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l0e, err := NewL0Estimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := hh.Merge(l0e); err == nil {
		t.Fatal("HeavyHitters.Merge accepted an L0Estimator")
	}
	if err := hh.Merge(nil); err == nil {
		t.Fatal("HeavyHitters.Merge accepted nil")
	}
	// A typed-nil of the RIGHT type reads as a nil diagnostic, not a
	// misleading wrong-type one.
	var typedNil *HeavyHitters
	err = hh.Merge(typedNil)
	if err == nil {
		t.Fatal("HeavyHitters.Merge accepted a typed nil")
	}
	if !strings.Contains(err.Error(), "nil") || strings.Contains(err.Error(), "concrete type") {
		t.Fatalf("typed-nil merge diagnostic misleads: %v", err)
	}
}

// TestUnmarshalWrongKindRejected: a structure refuses another
// structure's payload by kind byte, before touching any state.
func TestUnmarshalWrongKindRejected(t *testing.T) {
	cfg := Config{N: 1 << 10, Eps: 0.1, Alpha: 2, Seed: 1}
	hh, err := NewHeavyHitters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var l0e L0Estimator
	if err := l0e.UnmarshalBinary(data); err == nil {
		t.Fatal("L0Estimator accepted a HeavyHitters payload")
	}
}

// TestOptionErrors covers the constructor option contract: bad values
// and non-applicable options return descriptive errors (the historical
// API silently clamped the L1 estimator's delta).
func TestOptionErrors(t *testing.T) {
	cfg := Config{N: 1 << 10, Eps: 0.1, Alpha: 2, Seed: 1}
	if _, err := NewL1Estimator(cfg, WithFailureProb(1.5)); err == nil {
		t.Error("out-of-range WithFailureProb accepted")
	}
	if _, err := NewL1Estimator(cfg, WithFailureProb(0)); err == nil {
		t.Error("zero WithFailureProb accepted")
	}
	if _, err := NewL1Estimator(cfg, WithStrict(false), WithFailureProb(0.1)); err == nil {
		t.Error("WithFailureProb on the general estimator accepted")
	}
	if _, err := NewHeavyHitters(cfg, WithCopies(4)); err == nil {
		t.Error("WithCopies on NewHeavyHitters accepted")
	}
	if _, err := NewL0Estimator(cfg, WithK(8)); err == nil {
		t.Error("WithK on NewL0Estimator accepted")
	}
	if _, err := NewL1Sampler(cfg, WithCopies(0)); err == nil {
		t.Error("WithCopies(0) accepted")
	}
	if _, err := NewSyncSketch(cfg, WithCapacity(-1)); err == nil {
		t.Error("negative WithCapacity accepted")
	}
	if _, err := NewHeavyHitters(Config{}); err == nil {
		t.Error("invalid Config accepted")
	}
	// Valid combinations still construct.
	if _, err := NewL1Estimator(cfg, WithStrict(true), WithFailureProb(0.05)); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestZeroValueMarshalErrors: MarshalBinary on a zero-value receiver
// returns the descriptive zero-value error for every structure — the
// typed-nil impl pointer must not slip past the guard and panic.
func TestZeroValueMarshalErrors(t *testing.T) {
	zeroes := []Sketch{
		&HeavyHitters{},
		&L1Estimator{},
		&L0Estimator{},
		&L1Sampler{},
		&SupportSampler{},
		&InnerProduct{},
		&L2HeavyHitters{},
		&SyncSketch{},
	}
	for _, z := range zeroes {
		if _, err := z.MarshalBinary(); err == nil {
			t.Errorf("%T: zero-value MarshalBinary succeeded, want error", z)
		}
	}
}

// TestUnmarshalSketchRejectsGarbage: corrupt, truncated, and
// wrong-version payloads error without panicking.
func TestUnmarshalSketchRejectsGarbage(t *testing.T) {
	cfg := Config{N: 1 << 10, Eps: 0.1, Alpha: 2, Seed: 1}
	hh, err := NewHeavyHitters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hh.Update(1, 5)
	data, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		nil,
		{},
		{'B'},
		{'X', 'Y', 1, 1},
		data[:len(data)/2],
		data[:len(data)-1],
	} {
		if _, err := UnmarshalSketch(bad); err == nil {
			t.Errorf("accepted garbage of length %d", len(bad))
		}
	}
	wrongVersion := append([]byte(nil), data...)
	wrongVersion[2] = 99
	if _, err := UnmarshalSketch(wrongVersion); err == nil {
		t.Error("accepted wrong envelope version")
	}
	wrongKind := append([]byte(nil), data...)
	wrongKind[3] = 200
	if _, err := UnmarshalSketch(wrongKind); err == nil {
		t.Error("accepted unknown kind byte")
	}
}

// countSketchColsCrafted rewrites the eps of an L2HeavyHitters blob's
// Config echo, from which its Count-Sketch's column count is derived,
// and leaves the state as it was.
func countSketchColsCrafted(blob []byte, eps float64) []byte {
	out := slices.Clone(blob)
	binary.LittleEndian.PutUint64(out[12:], math.Float64bits(eps)) // after magic, version, kind and N
	return out
}

// TestCraftedCountSketchColsRefused: a Count-Sketch's column count is
// its constructor's, derived from the echoed eps, so a crafted eps is
// how a blob names one. Down to the smallest positive eps the count
// (clamped at 2^40) and the state length it implies must not wrap the
// length check: each such blob is refused by that check within the
// allocation bound, and the honest blob still decodes.
func TestCraftedCountSketchColsRefused(t *testing.T) {
	blob := must(must(NewL2HeavyHitters(Config{N: 1 << 16, Eps: 0.1, Alpha: 2, Seed: 7})).MarshalBinary())
	for _, eps := range []float64{0.01, 1e-6, 1e-12, 1e-100, math.SmallestNonzeroFloat64} {
		var err error
		wiretest.CheckBoundedDecode(t, countSketchColsCrafted(blob, eps), func(b []byte) error { _, err = UnmarshalSketch(b); return err })
		if err == nil || !strings.Contains(err.Error(), "shorter than") {
			t.Errorf("eps %g: err = %v, want the length refusal", eps, err)
		}
	}
	if _, err := UnmarshalSketch(blob); err != nil {
		t.Fatalf("honest blob refused: %v", err)
	}
}

// TestCraftedTrackerCapacityRefused: every structure that owns a
// candidate tracker sizes it by its constructor's capacity, so a state
// that lists more candidates than that retains is refused before
// anything is sized by the list — restoring allocates in proportion to
// the blob, whatever count it claims (a claimed 2^22 once cost 576 MiB
// from a 54 KB blob).
func TestCraftedTrackerCapacityRefused(t *testing.T) {
	cfg := Config{N: 1 << 16, Eps: 0.1, Alpha: 2, Seed: 7}
	for name, s := range map[string]Sketch{
		"HeavyHitters":   must(NewHeavyHitters(cfg)),
		"L2HeavyHitters": must(NewL2HeavyHitters(cfg)),
		"L1Sampler":      must(NewL1Sampler(Config{N: 1 << 16, Eps: 0.25, Alpha: 2, Seed: 7}, WithCopies(2))),
	} {
		// Untouched, each ends with its (last) tracker's empty list: its
		// count, then an empty id column's widths byte.
		blob := must(s.MarshalBinary())
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[len(bad)-topk.MinLen:], 1<<22)
		var err error
		wiretest.CheckBoundedDecode(t, bad, func(b []byte) error { _, err = UnmarshalSketch(b); return err })
		if err == nil {
			t.Errorf("%s: accepted a tracker listing 2^22 candidates", name)
		}
		if _, err := UnmarshalSketch(blob); err != nil {
			t.Errorf("%s: honest blob refused: %v", name, err)
		}
	}
}
