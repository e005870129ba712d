package bounded

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/topk"
	"repro/internal/wire/wiretest"
)

// fig1Stream is the shared marshal-test workload: the Fig1
// bounded-deletion stream the benchmarks use, split into two halves so
// tests can model "two sites sketch disjoint substreams, one ships its
// sketch to the other".
func fig1Stream(t *testing.T) (whole, first, second []stream.Update) {
	t.Helper()
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 30000, Alpha: 4, Zipf: 1.3, Seed: 77})
	half := len(s.Updates) / 2
	return s.Updates, s.Updates[:half], s.Updates[half:]
}

// marshalCase describes one structure's differential ship-merge check.
type marshalCase struct {
	name string
	kind Kind
	make func(t *testing.T) Sketch
	// answer extracts a comparable query answer.
	answer func(s Sketch) any
}

func marshalCases() []marshalCase {
	return marshalCasesFor(Config{N: 1 << 12, Eps: 0.05, Alpha: 4, Seed: 5})
}

// marshalCasesFor is the case table at cfg; the L1 sampler and the L2
// heavy hitters keep their own, coarser Eps.
func marshalCasesFor(cfg Config) []marshalCase {
	withEps := func(eps float64) Config { c := cfg; c.Eps = eps; return c }
	must := func(s Sketch, err error) func(*testing.T) Sketch {
		return func(t *testing.T) Sketch {
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	return []marshalCase{
		{
			name:   "HeavyHitters",
			kind:   KindHeavyHitters,
			make:   func(t *testing.T) Sketch { return must(NewHeavyHitters(cfg))(t) },
			answer: func(s Sketch) any { return s.(*HeavyHitters).HeavyHitters() },
		},
		{
			name:   "HeavyHittersGeneral",
			kind:   KindHeavyHitters,
			make:   func(t *testing.T) Sketch { return must(NewHeavyHitters(cfg, WithStrict(false)))(t) },
			answer: func(s Sketch) any { return s.(*HeavyHitters).HeavyHitters() },
		},
		{
			name:   "L1Estimator",
			kind:   KindL1Estimator,
			make:   func(t *testing.T) Sketch { return must(NewL1Estimator(cfg))(t) },
			answer: func(s Sketch) any { return s.(*L1Estimator).Estimate() },
		},
		{
			name:   "L1EstimatorGeneral",
			kind:   KindL1Estimator,
			make:   func(t *testing.T) Sketch { return must(NewL1Estimator(cfg, WithStrict(false)))(t) },
			answer: func(s Sketch) any { return s.(*L1Estimator).Estimate() },
		},
		{
			name:   "L0Estimator",
			kind:   KindL0Estimator,
			make:   func(t *testing.T) Sketch { return must(NewL0Estimator(cfg))(t) },
			answer: func(s Sketch) any { return s.(*L0Estimator).Estimate() },
		},
		{
			name: "L1Sampler",
			kind: KindL1Sampler,
			make: func(t *testing.T) Sketch {
				return must(NewL1Sampler(withEps(0.25), WithCopies(4)))(t)
			},
			answer: func(s Sketch) any {
				r, ok := s.(*L1Sampler).Sample()
				return fmt.Sprintf("%v/%v", r, ok)
			},
		},
		{
			name:   "SupportSampler",
			kind:   KindSupportSampler,
			make:   func(t *testing.T) Sketch { return must(NewSupportSampler(cfg, WithK(16)))(t) },
			answer: func(s Sketch) any { return s.(*SupportSampler).Recover() },
		},
		{
			name:   "InnerProduct",
			kind:   KindInnerProduct,
			make:   func(t *testing.T) Sketch { return must(NewInnerProduct(cfg))(t) },
			answer: func(s Sketch) any { return s.(*InnerProduct).Estimate() },
		},
		{
			name: "L2HeavyHitters",
			kind: KindL2HeavyHitters,
			make: func(t *testing.T) Sketch {
				return must(NewL2HeavyHitters(withEps(0.1)))(t)
			},
			answer: func(s Sketch) any { return s.(*L2HeavyHitters).HeavyHitters() },
		},
		{
			name:   "SyncSketch",
			kind:   KindSyncSketch,
			make:   func(t *testing.T) Sketch { return must(NewSyncSketch(cfg, WithCapacity(64)))(t) },
			answer: func(s Sketch) any { return s.(*SyncSketch).SpaceBits() },
		},
	}
}

// TestSameSeedSameBytes is the determinism contract of doc.go over all
// eight public structures: two instances built from one Config and fed
// one update sequence marshal to the same bytes. A small Alpha and a
// large Eps put the interval bases at 32 (inner product), 128 (general
// L1) and 520 (strict L1, fed 64-fold deltas), so this stream carries
// all three far past base^2, where both live levels sample and the draw
// order between them decides the bytes.
func TestSameSeedSameBytes(t *testing.T) {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 30000, Alpha: 4, Zipf: 1.3, Seed: 77})
	cfg := Config{N: 1 << 12, Eps: 0.5, Alpha: 1, Seed: 7}
	for _, tc := range []struct {
		name  string
		scale int64
		build func() (Sketch, error)
	}{
		{"HeavyHitters", 1, func() (Sketch, error) { return NewHeavyHitters(cfg) }},
		{"HeavyHitters/general", 1, func() (Sketch, error) { return NewHeavyHitters(cfg, WithStrict(false)) }},
		{"L1Estimator", 64, func() (Sketch, error) { return NewL1Estimator(cfg) }},
		{"L1Estimator/general", 1, func() (Sketch, error) { return NewL1Estimator(cfg, WithStrict(false)) }},
		{"L0Estimator", 1, func() (Sketch, error) { return NewL0Estimator(cfg) }},
		{"L1Sampler", 1, func() (Sketch, error) { return NewL1Sampler(cfg, WithCopies(2)) }},
		{"SupportSampler", 1, func() (Sketch, error) { return NewSupportSampler(cfg, WithK(8)) }},
		{"InnerProduct", 1, func() (Sketch, error) { return NewInnerProduct(cfg) }},
		{"L2HeavyHitters", 1, func() (Sketch, error) { return NewL2HeavyHitters(cfg) }},
		{"SyncSketch", 1, func() (Sketch, error) { return NewSyncSketch(cfg, WithCapacity(64)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []byte {
				sk, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range s.Updates {
					sk.Update(u.Index, u.Delta*tc.scale)
					if ip, ok := sk.(*InnerProduct); ok {
						ip.UpdateG(u.Index^1, u.Delta)
					}
				}
				data, err := sk.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			want := run()
			for rep := 0; rep < 2; rep++ {
				if !bytes.Equal(run(), want) {
					t.Fatal("two instances from one Config, fed one stream, marshal to different bytes")
				}
			}
		})
	}
}

// TestShipMergeMatchesCloneMerge is the acceptance differential: for
// every structure, marshal → (ship) → unmarshal → Merge into a peer
// produces answers identical to an in-process Clone + Merge, on the
// Fig1 workload. The wire format therefore loses nothing a merge
// consumes: tables, trackers, sampling clocks, hash wirings.
func TestShipMergeMatchesCloneMerge(t *testing.T) {
	_, first, second := fig1Stream(t)
	for _, tc := range marshalCases() {
		t.Run(tc.name, func(t *testing.T) {
			// Site A sketches the first half; site B the second half.
			siteA := tc.make(t)
			siteA.UpdateBatch(first)
			siteB := tc.make(t)
			siteB.UpdateBatch(second)

			// In-process path: a clone of B merges into a clone of A.
			inProc := siteA.Clone()
			if err := inProc.Merge(siteB.Clone()); err != nil {
				t.Fatalf("in-process merge: %v", err)
			}

			// Wire path: B's sketch ships as bytes; A restores and merges.
			data, err := siteB.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			shipped, err := UnmarshalSketch(data)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if k, _ := SketchKind(data); k != tc.kind {
				t.Fatalf("SketchKind = %v, want %v", k, tc.kind)
			}
			overWire := siteA.Clone()
			if err := overWire.Merge(shipped); err != nil {
				t.Fatalf("wire merge: %v", err)
			}

			got, want := tc.answer(overWire), tc.answer(inProc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("wire-merged answer %v differs from clone-merged answer %v", got, want)
			}
		})
	}
}

// TestMergeReadsItsArgument is the Merge contract of sketch.go over all
// eight structures, at rate 1 and with CSSS past 2S, with the receiver
// behind, level with and ahead of the argument's sampling exponent:
// a.Merge(b) leaves b's encoding and answers as they were (only
// alignment ever thinned b, and it thins a copy now), and at rate 1 the
// same b merged into two equal copies of a leaves equal bytes — b
// merges the second time as it did the first.
func TestMergeReadsItsArgument(t *testing.T) {
	whole, _, _ := fig1Stream(t)
	for _, regime := range []struct {
		name    string
		cfg     Config
		updates []stream.Update
	}{
		{"rate1", Config{N: 1 << 12, Eps: 0.05, Alpha: 4, Seed: 5}, whole[:len(whole)/4]},
		{"sampled", Config{N: 1 << 12, Eps: 0.2, Alpha: 1.5, Seed: 5}, whole},
	} {
		n := len(regime.updates)
		for _, split := range []struct {
			name string
			cut  int
			sign int // of a's exponent minus b's, in the sampled regime
		}{{"behind", n / 8, -1}, {"level", n / 2, 0}, {"ahead", n - n/8, 1}} {
			for _, tc := range marshalCasesFor(regime.cfg) {
				t.Run(regime.name+"/"+split.name+"/"+tc.name, func(t *testing.T) {
					a, b := tc.make(t), tc.make(t)
					a.UpdateBatch(regime.updates[:split.cut])
					b.UpdateBatch(regime.updates[split.cut:])
					if ha, ok := a.(*HeavyHitters); ok {
						pa, pb := ha.SampleExponent(), b.(*HeavyHitters).SampleExponent()
						switch {
						case regime.name == "rate1" && (pa != 0 || pb != 0):
							t.Fatalf("exponents %d and %d, want the rate-1 regime", pa, pb)
						case regime.name == "sampled" && (min(pa, pb) < 1 || (pa > pb) != (split.sign > 0) || (pa < pb) != (split.sign < 0)):
							t.Fatalf("exponents %d and %d do not put the receiver %s", pa, pb, split.name)
						}
					}
					twin := a.Clone()
					before, answer := must(b.MarshalBinary()), tc.answer(b)
					for _, dst := range []Sketch{a, twin} {
						if err := dst.Merge(b); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(must(b.MarshalBinary()), before) {
							t.Fatal("Merge changed its argument's encoding")
						}
						if got := tc.answer(b); !reflect.DeepEqual(got, answer) {
							t.Fatalf("Merge changed its argument's answer: %v, was %v", got, answer)
						}
					}
					// The strict L1 estimator has no drawless regime: its Morris
					// clock advances by a draw on every merge.
					if regime.name == "rate1" && tc.name != "L1Estimator" && !bytes.Equal(must(a.MarshalBinary()), must(twin.MarshalBinary())) {
						t.Fatal("one argument merged into two equal receivers left different bytes")
					}
				})
			}
		}
	}
}

// TestMarshalRoundTripAnswers: Unmarshal(Marshal(s)) answers exactly
// like s on the full Fig1 workload, and keeps no view of the input —
// the envelope hands its payload to the decoder uncopied, so the bytes
// are overwritten before the restored sketch is read.
func TestMarshalRoundTripAnswers(t *testing.T) {
	whole, _, _ := fig1Stream(t)
	for _, tc := range marshalCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make(t)
			s.UpdateBatch(whole)
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sent := bytes.Clone(data)
			restored, err := UnmarshalSketch(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				data[i] = 0xA5
			}
			if again, err := restored.MarshalBinary(); err != nil || !bytes.Equal(again, sent) {
				t.Fatalf("restored sketch re-marshals differently once its input is overwritten (err %v)", err)
			}
			if got, want := tc.answer(restored), tc.answer(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored answer %v differs from original %v", got, want)
			}
			if restored.SpaceBits() != s.SpaceBits() {
				t.Errorf("SpaceBits differs: %d vs %d", restored.SpaceBits(), s.SpaceBits())
			}
		})
	}
}

// appender exposes a public structure's unexported append to the wire
// package's nesting check.
type appender struct{ Sketch }

func (a appender) AppendBinary(dst []byte) ([]byte, error) {
	return appendBinary(dst, a.Sketch.(structure), 0)
}

// TestAppendBinaryMatchesMarshalBinary: every public envelope obeys the
// wire nesting rule — appended behind any prefix it is the bytes
// MarshalBinary returns, the prefix untouched — its state runs to the
// end of the frame, and the structure's size hint makes the whole frame
// cost one buffer.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	whole, _, _ := fig1Stream(t)
	for _, tc := range marshalCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make(t)
			s.UpdateBatch(whole[:len(whole)/4]) // the general L1 estimator takes seconds over all of it
			wiretest.CheckAppend(t, appender{s})
			wiretest.CheckGrowsOnce(t, appender{s})
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			env, err := parseEnvelope(data, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(env.payload); n == 0 || &env.payload[n-1] != &data[len(data)-1] {
				t.Fatalf("a %d-byte payload view does not end at the end of the %d-byte frame", n, len(data))
			}
		})
	}
}

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
