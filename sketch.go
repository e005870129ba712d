package bounded

import (
	"encoding"
	"fmt"
	"reflect"

	"repro/internal/heavy"
	"repro/internal/sampler"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// Sketch is the interface every structure in this package implements:
// a mergeable, serializable summary of a bounded-deletion stream. It is
// the contract the distributed scenarios compose against — each site
// feeds Update/UpdateBatch, ships MarshalBinary bytes, and a
// coordinator UnmarshalBinary-restores and Merges them — and the engine
// package's Snapshot ships exactly these bytes.
//
// Merge requires the other sketch to be the same concrete type, built
// from the same Config (seed included) and options; violations return a
// descriptive error. Clone returns a deep snapshot safe to hand to another
// goroutine while the original keeps ingesting. A marshal → unmarshal
// round trip is answer-preserving: in the sketches' exact regimes the
// restored instance is bit-identical to a Clone, which the differential
// tests assert on the Fig1 workload.
//
// InnerProduct sketches TWO streams; its Update/UpdateBatch feed the
// first stream f (UpdateG/UpdateBatchG feed g).
type Sketch interface {
	// Update feeds one stream update.
	Update(i uint64, delta int64)
	// UpdateBatch feeds a batch of updates in one call — the preferred
	// high-throughput ingest path. Internally it plans the batch into a
	// pooled columnar Batch and applies it via UpdateColumns.
	UpdateBatch(batch []Update)
	// UpdateColumns feeds a pre-planned columnar batch — the plan →
	// hash → apply pipeline's direct entry for producers that already
	// hold columnar data (the engine's shard partitioner). The batch's
	// Idx/Delta columns are read-only to the callee; its hash-column
	// scratch is consumed and may be overwritten.
	UpdateColumns(b *Batch)
	// Merge folds another same-type sketch built from the same Config
	// and options into this one (Compatible is the one check; any other
	// is an error and leaves the receiver unchanged); afterwards queries
	// answer for the union of both input streams. Merge leaves other's
	// answers and encoding unchanged: other is read, never thinned.
	// (Until the generator travels on the wire, ROADMAP 4a: to align
	// CSSS sampling rates Merge thins a COPY of other's table under a
	// generator seeded, as Clone seeds one, by one draw of other's — so
	// like Clone it is part of other's call sequence.)
	Merge(other Sketch) error
	// CloneInto returns a deep snapshot written into dst's storage: dst
	// is nil or a sketch an earlier CloneInto of the same kind returned
	// that nobody else holds (the caller gives it up; a dst of another
	// kind is ignored). It draws from the receiver exactly as Clone does,
	// so the two are interchangeable byte for byte.
	CloneInto(dst Sketch) Sketch
	// Clone returns a deep snapshot: CloneInto(nil).
	Clone() Sketch
	// SpaceBits reports the structure's space in the paper's cost model.
	SpaceBits() int64
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// Kind identifies a structure in the wire format.
type Kind uint8

// Wire kinds. Values are part of the serialization format; never
// renumber.
const (
	KindHeavyHitters Kind = iota + 1
	KindL1Estimator
	KindL0Estimator
	KindL1Sampler
	KindSupportSampler
	KindInnerProduct
	KindL2HeavyHitters
	KindSyncSketch
)

// kindTable is the one enumeration of the wire kinds: per kind, its
// name, its constructor (what a blob is decoded through, and the
// compile-time proof that every public structure is a Sketch) and the
// least length of its state; a kind in range always has a row. A ninth
// structure is one constant, one row, and a public type that embeds
// of[P, T] (body.go) over an internal structure T satisfying
// implementation: the body supplies its Sketch methods and zero-value
// guard, so the type writes only its constructor, its query methods
// (each through use) and its MarshalBinary/UnmarshalBinary one-liners.
// An engine kind is one more row in engine's kinds table.
var kindTable = [...]struct {
	name  string
	build func(Config, ...Option) (Sketch, error)
	// stateLen is the least length of a state at cfg under the option
	// values o resolves to: the part every state of that shape holds,
	// every count column a byte an entry and nothing patched, a closed
	// form of the parameters the constructor derives. Decoding holds a
	// payload to it before anything is allocated; a dense table is then
	// at most 8 times the bytes that carried it. (The L1 estimators' and
	// the inner product's are a few words — clocks, positions, level
	// counts — and their levels are sized only as they are read.)
	stateLen func(cfg Config, o *sketchOptions) int
}{
	KindHeavyHitters: {"HeavyHitters", ctor(NewHeavyHitters), func(c Config, o *sketchOptions) int {
		return hhParams(c, echo{general: !o.strict}).StateLen()
	}},
	KindL1Estimator: {"L1Estimator", ctor(NewL1Estimator), func(Config, *sketchOptions) int { return 20 }},
	KindL0Estimator: {"L0Estimator", ctor(NewL0Estimator), func(c Config, _ *sketchOptions) int { return l0Params(c).StateLen() }},
	KindL1Sampler: {"L1Sampler", ctor(NewL1Sampler), func(c Config, o *sketchOptions) int {
		return sampler.StateLen(samplerParams(c), samplerCopies(c, o.copies))
	}},
	KindSupportSampler: {"SupportSampler", ctor(NewSupportSampler), func(c Config, o *sketchOptions) int {
		return supportParams(c, o.k).StateLen()
	}},
	KindInnerProduct:   {"InnerProduct", ctor(NewInnerProduct), func(Config, *sketchOptions) int { return 40 }},
	KindL2HeavyHitters: {"L2HeavyHitters", ctor(NewL2HeavyHitters), func(c Config, _ *sketchOptions) int { return heavy.L2StateLen(c.Eps, c.Alpha) }},
	KindSyncSketch:     {"SyncSketch", ctor(NewSyncSketch), func(_ Config, o *sketchOptions) int { return sparse.StateLen(o.capacity) }},
}

// ctor adapts a constructor to the table's Sketch-returning form.
func ctor[T Sketch](f func(Config, ...Option) (T, error)) func(Config, ...Option) (Sketch, error) {
	return func(cfg Config, opts ...Option) (Sketch, error) {
		s, err := f(cfg, opts...)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// valid reports whether k names a known structure (kind 0 is unused).
func (k Kind) valid() bool { return k >= 1 && int(k) < len(kindTable) }

// String names the kind for diagnostics.
func (k Kind) String() string {
	if k.valid() {
		return kindTable[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// shape is what a structure is built from: its kind, its Config and the
// options echo. Every public structure's body (of) holds the one its
// constructor gave it (a zero value holds the zero shape); the envelope
// carries it, the decoder rebuilds the structure from it, and Merge
// requires it to be equal on both sides — the one check that stands for
// every dimension, prime and hash wiring, which are all functions of it.
type shape struct {
	kind Kind
	cfg  Config
	opts echo
}

func (s shape) shapeOf() shape { return s }

// state is a structure's internal state: what the envelope carries
// and what a decoded structure is filled from.
type state interface {
	encoding.BinaryAppender
	wire.Filler
}

// structure is what every public structure is beneath the Sketch
// interface: a shape and a state, and the check Compatible runs.
type structure interface {
	Sketch
	shapeOf() shape
	state() state
	compatible(other Sketch) error
}

// refillable is a structure a decode may refill in place: reset puts
// back its constructor's state, short of what Fill writes anyway (the
// generator Fill reseeds, the tables it overwrites), and keeps the
// dimensions, the hash wiring and the scratch. Kinds without one
// decode into a fresh build.
type refillable interface {
	structure
	reset()
}

// The public wire envelope (format v4): "BD" magic, the format version,
// the kind, the Config echo (N, Eps, Alpha, Seed), the options echo,
// then the structure's state — what Update and Merge change (counters,
// clocks, candidates, live levels) and nothing its constructor derives
// from the Config. Every count column in a state (the CSSS tables, the
// Count-Sketch counters, the sparse-recovery counts, the inner-product
// bins, the candidate ids) is packed at the byte width most of its
// entries need, the few wider ones patched in behind it, so a state is
// at or below SpaceBits()/8 bytes; field elements and floats stay a word
// each. The envelope makes payloads self-describing — a receiver can
// SketchKind-peek a blob, UnmarshalSketch it without knowing its type,
// and verify the Config matches its own before merging — and its
// version is the format's one version: an earlier one is refused, not
// translated.
const (
	envelopeMagic = "BD"
	envelopeV4    = 4
)

// envelope is the decoded public frame. payload aliases the input:
// every structure's Fill copies what it keeps into its own arrays, so
// the frame itself is never copied.
type envelope struct {
	shape
	payload []byte
}

// appendBinary appends s's envelope to dst. The state appends in place
// behind the header, so the frame costs one allocation when the state
// grows the buffer by its own length.
func appendBinary(dst []byte, s structure, kind Kind) ([]byte, error) {
	sh := s.shapeOf()
	if sh.kind == 0 {
		return nil, fmt.Errorf("bounded: marshal of zero-value %s (construct or UnmarshalBinary first)", kind)
	}
	w := wire.Append(dst, envelopeMagic, envelopeV4)
	w.U8(uint8(sh.kind))
	w.U64(sh.cfg.N)
	w.F64(sh.cfg.Eps)
	w.F64(sh.cfg.Alpha)
	w.I64(sh.cfg.Seed)
	w.Bool(sh.opts.general)
	w.U32(uint32(sh.opts.copies))
	w.F64(sh.opts.failureProb)
	w.U32(uint32(sh.opts.k))
	w.U32(uint32(sh.opts.capacity))
	w.Marshal(s.state())
	return w.Bytes(), nil
}

// openEnvelope checks the frame's magic and version and returns a
// reader standing at the fixed header: the kind byte, then the Config
// echo (configEcho). The header peeks stop there; parseEnvelope goes on.
func openEnvelope(data []byte) (*wire.Reader, error) {
	rd, v, err := wire.NewReader(data, envelopeMagic)
	if err != nil {
		return nil, fmt.Errorf("bounded: not a sketch envelope: %w", err)
	}
	if v != envelopeV4 {
		return nil, fmt.Errorf("bounded: unsupported wire format version %d", v)
	}
	return rd, nil
}

func configEcho(rd *wire.Reader) Config {
	return Config{N: rd.U64(), Eps: rd.F64(), Alpha: rd.F64(), Seed: rd.I64()}
}

// parseEnvelope decodes the public frame, verifying the kind when
// wantKind is nonzero.
func parseEnvelope(data []byte, wantKind Kind) (*envelope, error) {
	rd, err := openEnvelope(data)
	if err != nil {
		return nil, err
	}
	e := &envelope{}
	e.kind = Kind(rd.U8())
	e.cfg = configEcho(rd)
	e.opts.general = rd.Bool()
	e.opts.copies = int(rd.U32())
	e.opts.failureProb = rd.F64()
	e.opts.k = int(rd.U32())
	e.opts.capacity = int(rd.U32())
	e.payload = rd.Take(rd.Remaining())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if !e.kind.valid() {
		return nil, fmt.Errorf("bounded: unknown sketch kind %d", uint8(e.kind))
	}
	if wantKind != 0 && e.kind != wantKind {
		return nil, fmt.Errorf("bounded: payload holds a %s, not a %s", e.kind, wantKind)
	}
	return e, nil
}

// decode restores a structure from its envelope (of kind want, when
// nonzero). The constructor is the validator: the state's length is
// held to the least length of the shape the echo resolves to before
// anything is allocated, the structure is built from the echoed Config
// and options exactly as New builds it — an echo the constructor
// refuses, or one it would not have written, is refused — and the state
// then fills what that build left empty. A dst of the echoed shape that
// can be put back into its constructor's state (refillable) stands in
// for the build: it is reset and filled in place. Nothing else is
// committed anywhere, so a failure leaves every caller's receiver
// untouched.
func decode(data []byte, want Kind, dst Sketch) (structure, error) {
	env, err := parseEnvelope(data, want)
	if err != nil {
		return nil, err
	}
	if err := env.cfg.Validate(); err != nil {
		return nil, err
	}
	row := &kindTable[env.kind]
	o, err := applyOptions(row.name, env.opts.options())
	if err != nil {
		return nil, fmt.Errorf("bounded: %s options echo: %w", env.kind, err)
	}
	if need := row.stateLen(env.cfg, o); len(env.payload) < need {
		return nil, fmt.Errorf("bounded: %s state of %d bytes is shorter than the least %d its Config and options call for",
			env.kind, len(env.payload), need)
	}
	var s structure
	if r, ok := dst.(refillable); ok && !reflect.ValueOf(r).IsNil() && r.shapeOf() == env.shape {
		r.reset()
		s = r
	} else {
		sk, err := row.build(env.cfg, env.opts.options()...)
		if err != nil {
			return nil, fmt.Errorf("bounded: %s options echo: %w", env.kind, err)
		}
		s = sk.(structure)
		if s.shapeOf() != env.shape {
			return nil, fmt.Errorf("bounded: %s options echo %+v is not the one its constructor writes (%+v)", env.kind, env.opts, s.shapeOf().opts)
		}
	}
	if err := wire.Fill(env.payload, s.state()); err != nil {
		return nil, fmt.Errorf("bounded: %s state: %w", env.kind, err)
	}
	return s, nil
}

// unmarshalInto is the body of every UnmarshalBinary: decode a kind's
// blob and, only on success, overwrite the receiver with it.
func unmarshalInto[T any](dst *T, data []byte, kind Kind) error {
	s, err := decode(data, kind, nil)
	if err != nil {
		return err
	}
	*dst = *any(s).(*T)
	return nil
}

// SketchConfig peeks at a serialized sketch's Config echo without
// unmarshaling the state — the cross-check a partitioned restore runs
// on every blob before installing it into a live shard. Like
// SketchKind it reads the fixed header only: a frame whose state is
// truncated or malformed still answers here and fails UnmarshalSketch.
func SketchConfig(data []byte) (Config, error) {
	rd, err := openEnvelope(data)
	if err != nil {
		return Config{}, err
	}
	rd.U8() // kind
	cfg := configEcho(rd)
	if err := rd.Err(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SketchKind peeks at a serialized sketch and reports which structure
// it holds, without unmarshaling the state.
func SketchKind(data []byte) (Kind, error) {
	rd, err := openEnvelope(data)
	if err != nil {
		return 0, err
	}
	k := Kind(rd.U8())
	if err := rd.Err(); err != nil {
		return 0, err
	}
	if !k.valid() {
		return 0, fmt.Errorf("bounded: unknown sketch kind %d", uint8(k))
	}
	return k, nil
}

// UnmarshalSketch restores any serialized structure, dispatching on the
// envelope's kind byte — the receive side of a heterogeneous sketch
// exchange (the networked aggregator and the engine's partitioned
// restore are built on it).
func UnmarshalSketch(data []byte) (Sketch, error) { return UnmarshalSketchInto(nil, data) }

// UnmarshalSketchInto is UnmarshalSketch written into dst's storage:
// dst is nil or a sketch nobody else holds (the caller gives it up, as
// with CloneInto). When dst is a HeavyHitters or an L1Estimator of the
// blob's shape — the same Config and options — it is put back into its
// constructor's state and filled in place, so neither its hash wiring
// nor its generator is built again and its tables are reused; any
// other dst is ignored and a new structure is built. Either way the
// result is byte for byte, draw for draw, what UnmarshalSketch returns.
// On error dst holds no state worth reading, but it may be passed
// again.
func UnmarshalSketchInto(dst Sketch, data []byte) (Sketch, error) {
	s, err := decode(data, 0, dst)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Every structure's MarshalBinary writes the self-describing envelope
// (kind, Config echo, options echo) around its state; ship the bytes
// to a peer holding a same-Config instance and Merge there — identical
// to an in-process merge in the sketches' exact regimes. Every
// UnmarshalBinary restores what MarshalBinary wrote: it works on a
// zero-value receiver, and on failure leaves the receiver unchanged.

// MarshalBinary serializes the structure.
func (h *HeavyHitters) MarshalBinary() ([]byte, error) { return appendBinary(nil, h, KindHeavyHitters) }

// UnmarshalBinary restores a structure serialized by MarshalBinary.
func (h *HeavyHitters) UnmarshalBinary(data []byte) error {
	return unmarshalInto(h, data, KindHeavyHitters)
}

func (h *HeavyHitters) reset() { h.impl.Reset() }

// MarshalBinary serializes the estimator.
func (e *L1Estimator) MarshalBinary() ([]byte, error) { return appendBinary(nil, e, KindL1Estimator) }

// UnmarshalBinary restores an estimator serialized by MarshalBinary.
func (e *L1Estimator) UnmarshalBinary(data []byte) error {
	return unmarshalInto(e, data, KindL1Estimator)
}

func (e *L1Estimator) reset() { e.impl.Reset() }

// MarshalBinary serializes the estimator.
func (e *L0Estimator) MarshalBinary() ([]byte, error) { return appendBinary(nil, e, KindL0Estimator) }

// UnmarshalBinary restores an estimator serialized by MarshalBinary.
func (e *L0Estimator) UnmarshalBinary(data []byte) error {
	return unmarshalInto(e, data, KindL0Estimator)
}

// MarshalBinary serializes the sampler.
func (s *L1Sampler) MarshalBinary() ([]byte, error) { return appendBinary(nil, s, KindL1Sampler) }

// UnmarshalBinary restores a sampler serialized by MarshalBinary.
func (s *L1Sampler) UnmarshalBinary(data []byte) error {
	return unmarshalInto(s, data, KindL1Sampler)
}

// MarshalBinary serializes the sampler.
func (s *SupportSampler) MarshalBinary() ([]byte, error) {
	return appendBinary(nil, s, KindSupportSampler)
}

// UnmarshalBinary restores a sampler serialized by MarshalBinary.
func (s *SupportSampler) UnmarshalBinary(data []byte) error {
	return unmarshalInto(s, data, KindSupportSampler)
}

// MarshalBinary serializes the estimator.
func (ip *InnerProduct) MarshalBinary() ([]byte, error) {
	return appendBinary(nil, ip, KindInnerProduct)
}

// UnmarshalBinary restores an estimator serialized by MarshalBinary.
func (ip *InnerProduct) UnmarshalBinary(data []byte) error {
	return unmarshalInto(ip, data, KindInnerProduct)
}

// MarshalBinary serializes the structure.
func (h *L2HeavyHitters) MarshalBinary() ([]byte, error) {
	return appendBinary(nil, h, KindL2HeavyHitters)
}

// UnmarshalBinary restores a structure serialized by MarshalBinary.
func (h *L2HeavyHitters) UnmarshalBinary(data []byte) error {
	return unmarshalInto(h, data, KindL2HeavyHitters)
}

// MarshalBinary serializes the sync sketch in the self-describing
// envelope every other structure uses.
func (s *SyncSketch) MarshalBinary() ([]byte, error) { return appendBinary(nil, s, KindSyncSketch) }

// UnmarshalBinary restores a sync sketch serialized by MarshalBinary —
// `var s SyncSketch; s.UnmarshalBinary(data)` is the receive side of an
// exchange.
func (s *SyncSketch) UnmarshalBinary(data []byte) error {
	return unmarshalInto(s, data, KindSyncSketch)
}
