// kinds.go is the one table of structure kinds and what hangs off it:
// the Structures bit set, its naming and enumeration, and DecodeBlobs,
// the admission check for bit-tagged blobs from outside the process.
package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	bounded "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// Structures selects which sketches every shard maintains; combine with
// bitwise OR. Each enabled structure costs its full space per shard.
type Structures uint32

const (
	// HeavyHitters enables the Section 3 eps-heavy-hitters structure.
	HeavyHitters Structures = 1 << iota
	// L1Estimator enables the Figure 4 / Theorem 8 L1 estimator.
	L1Estimator
	// L0Estimator enables the Figure 7 L0 (support size) estimator.
	L0Estimator
	// L1Sampler enables the Figure 3 perfect L1 sampler.
	L1Sampler
	// SupportSampler enables the Figure 8 support sampler.
	SupportSampler
	// L2HeavyHitters enables the Appendix A L2 heavy hitters.
	L2HeavyHitters
	// SyncSketch enables the s-sparse recovery sync sketch.
	SyncSketch
)

// alphaProperty is the α property of the stream a kind's guarantee
// assumes (Definition 1 and its variants).
type alphaProperty uint8

const (
	alphaNone   alphaProperty = iota // exact whatever the stream: nothing assumed
	alphaL1                          // ‖I + D‖₁ ≤ α‖f‖₁
	alphaL0                          // F₀(I + D) ≤ α‖f‖₀
	alphaL2                          // ‖I + D‖₂ ≤ α‖f‖₂
	alphaStrong                      // the strong α property of the L1 sampler
)

func (p alphaProperty) String() string {
	return [...]string{"no α property", "the L1 α property", "the L0 α property", "the L2 α property", "the strong α property"}[p]
}

// model is the stream model a kind's guarantee is proven for: the α
// property it assumes, and whether it also holds in the general
// turnstile model (a frequency may go negative) or only in the strict
// one. Options.General asks for the general model; New refuses it for
// a kind proven only for the strict one.
type model struct {
	general bool
	alpha   alphaProperty
}

// kinds is the one table of structure kinds: per Structures bit, its
// command-line name (ParseStructures), the wire kind its snapshots
// carry, the stream model its guarantee is proven for and the
// constructor with its Options plumbing. Rows are in ascending bit
// order (kinds[i].bit == 1<<i), so a structSet is indexed by row and
// "each enabled structure" is a loop.
var kinds = [...]struct {
	bit   Structures
	name  string
	kind  bounded.Kind
	model model
	build func(bounded.Config, Options) (bounded.Sketch, error)
}{
	{HeavyHitters, "hh", bounded.KindHeavyHitters, model{true, alphaL1}, func(cfg bounded.Config, o Options) (bounded.Sketch, error) {
		return bounded.NewHeavyHitters(cfg, bounded.WithStrict(!o.General))
	}},
	{L1Estimator, "l1", bounded.KindL1Estimator, model{true, alphaL1}, func(cfg bounded.Config, o Options) (bounded.Sketch, error) {
		opts := []bounded.Option{bounded.WithStrict(!o.General)}
		// L1Delta == 0 means "the constructor's default"; any other value
		// goes through WithFailureProb so an out-of-range delta surfaces
		// as NewL1Estimator's descriptive error instead of being clamped.
		// The general variant has no delta knob (its failure probability
		// is fixed by its row count), so L1Delta is ignored there.
		if o.L1Delta != 0 && !o.General {
			opts = append(opts, bounded.WithFailureProb(o.L1Delta))
		}
		return bounded.NewL1Estimator(cfg, opts...)
	}},
	{L0Estimator, "l0", bounded.KindL0Estimator, model{true, alphaL0}, func(cfg bounded.Config, _ Options) (bounded.Sketch, error) {
		return bounded.NewL0Estimator(cfg)
	}},
	{L1Sampler, "l1sampler", bounded.KindL1Sampler, model{false, alphaStrong}, func(cfg bounded.Config, o Options) (bounded.Sketch, error) {
		var opts []bounded.Option
		if o.SamplerCopies > 0 {
			opts = append(opts, bounded.WithCopies(o.SamplerCopies))
		}
		return bounded.NewL1Sampler(cfg, opts...)
	}},
	{SupportSampler, "support", bounded.KindSupportSampler, model{false, alphaL0}, func(cfg bounded.Config, o Options) (bounded.Sketch, error) {
		var opts []bounded.Option
		if o.SupportK > 0 {
			opts = append(opts, bounded.WithK(o.SupportK))
		}
		return bounded.NewSupportSampler(cfg, opts...)
	}},
	{L2HeavyHitters, "l2hh", bounded.KindL2HeavyHitters, model{true, alphaL2}, func(cfg bounded.Config, _ Options) (bounded.Sketch, error) {
		return bounded.NewL2HeavyHitters(cfg)
	}},
	{SyncSketch, "sync", bounded.KindSyncSketch, model{true, alphaNone}, func(cfg bounded.Config, o Options) (bounded.Sketch, error) {
		var opts []bounded.Option
		if o.SyncCapacity > 0 {
			opts = append(opts, bounded.WithCapacity(o.SyncCapacity))
		}
		return bounded.NewSyncSketch(cfg, opts...)
	}},
}

// row maps a single Structures bit to its kinds row; ok is false when s
// is not exactly one known kind.
func (s Structures) row() (int, bool) {
	i := bits.TrailingZeros32(uint32(s))
	return i, s != 0 && s&(s-1) == 0 && i < len(kinds)
}

// Kind reports the wire kind that snapshots of a single structure bit
// carry — what a receiver compares bounded.SketchKind(payload) against
// before filing a blob under that bit. ok is false when s is not
// exactly one known structure.
func (s Structures) Kind() (bounded.Kind, bool) {
	i, ok := s.row()
	if !ok {
		return 0, false
	}
	return kinds[i].kind, true
}

// Bits lists the single-structure bits set in s in table order (low to
// high) — the canonical blob order of every container that ships one
// blob per structure. Bits outside the table are not listed.
func (s Structures) Bits() []Structures {
	var out []Structures
	for _, k := range kinds {
		if s&k.bit != 0 {
			out = append(out, k.bit)
		}
	}
	return out
}

// StructureNames lists the kinds table's names in row order, comma
// separated — the vocabulary ParseStructures accepts, as the
// -structures flags' help shows it.
func StructureNames() string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return strings.Join(names, ",")
}

// ParseStructures parses a comma-separated list of kinds-table names
// ("hh,l1,support"), in any case and with spaces around each name, into
// a structure set — the vocabulary of the -structures flags.
func ParseStructures(s string) (Structures, error) {
	names := strings.Split(StructureNames(), ",")
	var out Structures
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.Index(names, strings.ToLower(name))
		if i < 0 {
			return 0, fmt.Errorf("engine: unknown structure %q (want %s)", name, StructureNames())
		}
		out |= kinds[i].bit
	}
	if out == 0 {
		return 0, fmt.Errorf("engine: empty structure list (want %s)", StructureNames())
	}
	return out, nil
}

// DecodeBlobs is the one admission check for bit-tagged sketch blobs
// arriving from outside the process: a partitioned snapshot's shard
// list, a SNAPSHOT frame, a checkpointed agent table. Each blob must be
// filed under a single known structure bit inside accept, at most once;
// its payload must hold the wire kind the table gives that bit (an L1
// estimator cannot be filed under the heavy-hitters slot), echo exactly
// cfg (same seed ⇒ same hash wirings ⇒ mergeable — a foreign Config
// admitted here would poison every later Merge), and unmarshal. A blob
// carries no hash wiring of its own — the decoder rebuilds it from cfg
// — so an admitted blob merges with every structure built from cfg and
// the same options; the options echo is the caller's to compare
// (RestorePartitioned does, against its own structures, and the
// networked aggregator against its other agents'). The sketches
// come back parallel to blobs, and only once every blob has passed, so
// a caller commits all of a list or none of it. spare, when not nil,
// holds retired sketches nobody else holds, by bit: each blob is
// decoded into its bit's (bounded.UnmarshalSketchInto), and the caller
// gives them all up.
func DecodeBlobs(blobs []wire.Blob, accept Structures, cfg bounded.Config, spare map[Structures]bounded.Sketch) ([]bounded.Sketch, error) {
	out := make([]bounded.Sketch, len(blobs))
	var seen Structures
	for j, b := range blobs {
		bit := Structures(b.Bit)
		row, ok := bit.row()
		if !ok {
			return nil, fmt.Errorf("blob tagged %s, not a single known structure", bit)
		}
		if bit&accept == 0 {
			return nil, fmt.Errorf("structure %s outside the accepted set %s", bit, accept)
		}
		if seen&bit != 0 {
			return nil, fmt.Errorf("structure %s carried twice", bit)
		}
		seen |= bit
		kind, err := bounded.SketchKind(b.Payload)
		if err != nil {
			return nil, fmt.Errorf("structure %s: %w", bit, err)
		}
		if kind != kinds[row].kind {
			return nil, fmt.Errorf("blob tagged %s holds a %s", bit, kind)
		}
		bcfg, err := bounded.SketchConfig(b.Payload)
		if err != nil {
			return nil, fmt.Errorf("structure %s: %w", bit, err)
		}
		if bcfg != cfg {
			return nil, fmt.Errorf("structure %s built from Config %+v, receiver has %+v", bit, bcfg, cfg)
		}
		if out[j], err = bounded.UnmarshalSketchInto(spare[bit], b.Payload); err != nil {
			return nil, fmt.Errorf("structure %s: %w", bit, err)
		}
	}
	return out, nil
}

// String names the set by its kinds ("HeavyHitters|SupportSampler");
// bits outside the table print in hex.
func (s Structures) String() string {
	var names []string
	for _, k := range kinds {
		if s&k.bit != 0 {
			names = append(names, k.kind.String())
			s &^= k.bit
		}
	}
	if s != 0 || len(names) == 0 {
		names = append(names, fmt.Sprintf("%#x", uint32(s)))
	}
	return strings.Join(names, "|")
}

// structSet is one shard's sketch collection, indexed by kinds row (nil
// = not enabled). All shards hold sets built from the same Config,
// which is what makes them mergeable.
type structSet []bounded.Sketch

func newStructSet(cfg bounded.Config, o Options) (structSet, error) {
	s := make(structSet, len(kinds))
	for i, k := range kinds {
		if o.Structures&k.bit == 0 {
			continue
		}
		if o.General && !k.model.general {
			return nil, fmt.Errorf("engine: structure %s (%s) is proven only for strict turnstile streams with %s; Options.General asks for the general model", k.name, k.kind, k.model.alpha)
		}
		sk, err := k.build(cfg, o)
		if err != nil {
			return nil, err
		}
		s[i] = sk
	}
	return s, nil
}

// UpdateColumns fans one pre-planned columnar batch to every enabled
// structure (shard.Ingester). The batch's index/delta columns are
// shared read-only; each structure hashes them with its own batch
// evaluators into the batch's reusable column scratch and applies.
func (s structSet) UpdateColumns(b *core.Batch) {
	for _, sk := range s {
		if sk != nil {
			sk.UpdateColumns(b)
		}
	}
}

func (s structSet) spaceBits() int64 {
	var total int64
	for _, sk := range s {
		if sk != nil {
			total += sk.SpaceBits()
		}
	}
	return total
}
