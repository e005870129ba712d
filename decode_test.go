package bounded

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// hugeShapeBlob is a couple of kilobytes whose envelope names an
// L2HeavyHitters at ε 0.02, α 64, N 2^20: the Config echo of a small
// honest blob rewritten, its state (about 1.6 GB at that shape) left
// short.
func hugeShapeBlob(tb testing.TB) []byte {
	blob := must(must(NewL2HeavyHitters(Config{N: 1 << 10, Eps: 0.9, Alpha: 1, Seed: 3})).MarshalBinary())
	binary.LittleEndian.PutUint64(blob[4:], 1<<20)                   // N, after magic, version and kind
	binary.LittleEndian.PutUint64(blob[12:], math.Float64bits(0.02)) // Eps
	binary.LittleEndian.PutUint64(blob[20:], math.Float64bits(64))   // Alpha
	if cfg, err := SketchConfig(blob); err != nil || cfg.Eps != 0.02 || cfg.Alpha != 64 || cfg.N != 1<<20 {
		tb.Fatalf("rewritten echo reads %+v, %v", cfg, err)
	}
	return blob
}

// TestDecodeRefusesHugeShapeUnallocated: the state's length is held to
// the echoed shape's dense length before the constructor runs, so a
// short blob naming a huge shape is refused having allocated about its
// own size.
func TestDecodeRefusesHugeShapeUnallocated(t *testing.T) {
	blob := hugeShapeBlob(t)
	if len(blob) > 2000 {
		t.Fatalf("the crafted blob is %d bytes", len(blob))
	}
	var err error
	wiretest.CheckBoundedDecode(t, blob, func(b []byte) error { _, err = UnmarshalSketch(b); return err })
	if err == nil || !strings.Contains(err.Error(), "shorter than") {
		t.Fatalf("a %d-byte blob naming a 1.6 GB state: err = %v, want the length refusal", len(blob), err)
	}
}

// TestDecodeBoundedAtExtremeConfigs: echoes at the edges Validate
// admits — a tiny eps, a huge alpha, the largest universe, option
// counts at zero and at their largest — are refused (or built) within
// the allocation bound, never by a panic.
func TestDecodeBoundedAtExtremeConfigs(t *testing.T) {
	base := Config{N: 1 << 10, Eps: 0.25, Alpha: 2, Seed: 1}
	for _, kind := range allKinds(base) {
		blob := must(kind.build().MarshalBinary())
		for _, cfg := range []Config{
			{N: 1 << 44, Eps: 0.25, Alpha: 2, Seed: 1},
			{N: 1 << 10, Eps: 1e-300, Alpha: 2, Seed: 1},
			{N: 1 << 10, Eps: 1e-6, Alpha: 2, Seed: 1},
			{N: 1 << 10, Eps: 0.25, Alpha: 1e300, Seed: 1},
			{N: 1 << 10, Eps: 0.999, Alpha: 1e6, Seed: 1},
			{N: 1 << 10, Eps: 0.25, Alpha: math.Inf(1), Seed: 1},
			{N: 1 << 10, Eps: 0.25, Alpha: math.NaN(), Seed: 1},
			{N: 1 << 10, Eps: math.NaN(), Alpha: 2, Seed: 1},
		} {
			forged := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint64(forged[4:], cfg.N)
			binary.LittleEndian.PutUint64(forged[12:], math.Float64bits(cfg.Eps))
			binary.LittleEndian.PutUint64(forged[20:], math.Float64bits(cfg.Alpha))
			wiretest.CheckBoundedDecode(t, forged, func(b []byte) error { _, err := UnmarshalSketch(b); return err })
		}
		// Every count in the options echo at zero (the constructor's
		// default) and at its largest.
		at := stateAt(t, blob)
		for _, off := range []int{at - 20, at - 8, at - 4} { // copies, k, capacity
			for _, v := range []uint32{0, math.MaxUint32} {
				forged := append([]byte(nil), blob...)
				binary.LittleEndian.PutUint32(forged[off:], v)
				wiretest.CheckBoundedDecode(t, forged, func(b []byte) error { _, err := UnmarshalSketch(b); return err })
			}
		}
	}
}

// TestRefusesV1: the format has one version; a blob of an earlier one
// (v1, v2 with its counters a word each, v3 with each count column at
// its widest entry's width) is refused with one clear error.
func TestRefusesV1(t *testing.T) {
	for _, v := range []byte{1, 2, 3} {
		blob := must(must(NewHeavyHitters(Config{N: 1 << 10, Eps: 0.1, Alpha: 2, Seed: 1})).MarshalBinary())
		blob[2] = v
		want := fmt.Sprintf("bounded: unsupported wire format version %d", v)
		var h HeavyHitters
		for _, err := range []error{h.UnmarshalBinary(blob), second(UnmarshalSketch(blob)), second(SketchKind(blob))} {
			if err == nil || err.Error() != want {
				t.Errorf("a v%d envelope: err = %v", v, err)
			}
		}
	}
}

// TestRefusesV3Blobs: every blob of the engine's format-3 golden image
// — one of each engine kind, as the format-3 encoder wrote it — is refused by
// UnmarshalSketch with the error naming format 3.
func TestRefusesV3Blobs(t *testing.T) {
	var img wire.PartSnapshot
	if err := img.UnmarshalBinary(wiretest.V3Image(t, ".")); err != nil {
		t.Fatal(err)
	}
	blobs := img.Shards[0]
	if len(blobs) != 7 {
		t.Fatalf("the image holds %d blobs, want one per engine kind (7)", len(blobs))
	}
	for _, b := range blobs {
		if _, err := UnmarshalSketch(b.Payload); err == nil || err.Error() != "bounded: unsupported wire format version 3" {
			t.Errorf("a format-3 blob of bit %d: err = %v", b.Bit, err)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// kindCase builds one of the nine constructor variants, and a copy of it
// under one changed Config field or option.
type kindCase struct {
	name  string
	build func() Sketch
	// variants are the same constructor under every other Config field
	// value and every other option value it takes.
	variants map[string]func() Sketch
}

// allKinds lists the nine constructor variants at cfg.
func allKinds(cfg Config) []kindCase {
	type ctorFn func(Config, ...Option) (Sketch, error)
	mk := func(name string, f ctorFn, opts []Option, optVariants map[string][]Option) kindCase {
		c := kindCase{name: name, build: func() Sketch { return must(f(cfg, opts...)) }, variants: map[string]func() Sketch{}}
		for field, alt := range map[string]Config{
			"N":     {N: 2 * cfg.N, Eps: cfg.Eps, Alpha: cfg.Alpha, Seed: cfg.Seed},
			"Eps":   {N: cfg.N, Eps: cfg.Eps * 1.01, Alpha: cfg.Alpha, Seed: cfg.Seed},
			"Alpha": {N: cfg.N, Eps: cfg.Eps, Alpha: cfg.Alpha * 1.5, Seed: cfg.Seed},
			"Seed":  {N: cfg.N, Eps: cfg.Eps, Alpha: cfg.Alpha, Seed: cfg.Seed + 1},
		} {
			c.variants["Config."+field] = func() Sketch { return must(f(alt, opts...)) }
		}
		for name, o := range optVariants {
			c.variants[name] = func() Sketch { return must(f(cfg, o...)) }
		}
		return c
	}
	return []kindCase{
		mk("HeavyHitters", ctor(NewHeavyHitters), nil, map[string][]Option{"WithStrict": {WithStrict(false)}}),
		mk("HeavyHitters/general", ctor(NewHeavyHitters), []Option{WithStrict(false)}, map[string][]Option{"WithStrict": nil}),
		mk("L1Estimator", ctor(NewL1Estimator), nil, map[string][]Option{
			"WithStrict": {WithStrict(false)}, "WithFailureProb": {WithFailureProb(0.2)},
		}),
		mk("L1Estimator/general", ctor(NewL1Estimator), []Option{WithStrict(false)}, map[string][]Option{"WithStrict": nil}),
		mk("L0Estimator", ctor(NewL0Estimator), nil, nil),
		mk("L1Sampler", ctor(NewL1Sampler), []Option{WithCopies(2)}, map[string][]Option{"WithCopies": {WithCopies(3)}}),
		mk("SupportSampler", ctor(NewSupportSampler), []Option{WithK(4)}, map[string][]Option{"WithK": {WithK(5)}}),
		mk("InnerProduct", ctor(NewInnerProduct), nil, nil),
		mk("L2HeavyHitters", ctor(NewL2HeavyHitters), nil, nil),
		mk("SyncSketch", ctor(NewSyncSketch), []Option{WithCapacity(16)}, map[string][]Option{"WithCapacity": {WithCapacity(17)}}),
	}
}

// TestMergeRefusesEveryMismatch: for every constructor variant, a Merge
// of a structure built under any other Config field or option value is
// an error, and the receiver's bytes do not move. One check at the root
// compares the two shapes; nothing below it can disagree.
func TestMergeRefusesEveryMismatch(t *testing.T) {
	cfg := Config{N: 1 << 12, Eps: 0.1, Alpha: 2, Seed: 5}
	feed := func(s Sketch) Sketch {
		for i := uint64(0); i < 200; i++ {
			s.Update(i%37, 1+int64(i%3))
		}
		return s
	}
	for _, kc := range allKinds(cfg) {
		for name, variant := range kc.variants {
			recv, other := feed(kc.build()), feed(variant())
			before := must(recv.MarshalBinary())
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
						t.Errorf("%s × %s: Merge panicked: %v", kc.name, name, p)
					}
				}()
				err = recv.Merge(other)
			}()
			if err == nil {
				t.Errorf("%s × %s: Merge accepted a mismatched structure", kc.name, name)
			}
			if after := must(recv.MarshalBinary()); string(after) != string(before) {
				t.Errorf("%s × %s: a refused Merge changed the receiver", kc.name, name)
			}
		}
	}
}
