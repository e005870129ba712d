package bounded

import (
	"encoding"
	"fmt"

	"repro/internal/cauchy"
	"repro/internal/heavy"
	"repro/internal/inner"
	"repro/internal/l0"
	"repro/internal/l1"
	"repro/internal/sampler"
	"repro/internal/sparse"
	"repro/internal/support"
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
// from the same Config (seed included); violations return a descriptive
// error. Clone returns a deep snapshot safe to hand to another
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
	// Merge folds another same-type, same-Config sketch into this one;
	// afterwards queries answer for the union of both input streams.
	// Merge leaves other's answers and encoding unchanged: other is
	// read, never thinned. (Until wire v2, ROADMAP 4a: to align CSSS
	// sampling rates Merge thins a COPY of other's table under a
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
// name and a zero-value constructor (what UnmarshalSketch restores
// into, and the compile-time proof that every public structure is a
// Sketch). A ninth structure is one constant and one row; a kind in
// range always has a constructor.
var kindTable = [...]struct {
	name string
	zero func() Sketch
}{
	KindHeavyHitters:   {"HeavyHitters", func() Sketch { return &HeavyHitters{} }},
	KindL1Estimator:    {"L1Estimator", func() Sketch { return &L1Estimator{} }},
	KindL0Estimator:    {"L0Estimator", func() Sketch { return &L0Estimator{} }},
	KindL1Sampler:      {"L1Sampler", func() Sketch { return &L1Sampler{} }},
	KindSupportSampler: {"SupportSampler", func() Sketch { return &SupportSampler{} }},
	KindInnerProduct:   {"InnerProduct", func() Sketch { return &InnerProduct{} }},
	KindL2HeavyHitters: {"L2HeavyHitters", func() Sketch { return &L2HeavyHitters{} }},
	KindSyncSketch:     {"SyncSketch", func() Sketch { return &SyncSketch{} }},
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

// The public wire envelope: "BD" magic, a format version, the kind, the
// Config echo (N, Eps, Alpha, Seed), the constructor options echo, and
// the structure's own framed payload (which carries every hash
// coefficient). The envelope makes payloads self-describing — a
// receiver can SketchKind-peek a blob, UnmarshalSketch it without
// knowing its type, and verify the Config matches its own before
// merging.
const (
	envelopeMagic = "BD"
	envelopeV1    = 1
)

// envelope is the decoded public frame. payload aliases the input:
// every structure decoder copies what it keeps into fresh arrays, so
// the frame itself is never copied.
type envelope struct {
	kind    Kind
	cfg     Config
	opts    sketchOptions
	payload []byte
}

// errZeroValueMarshal is the zero-value-receiver diagnostic. Callers
// must check their CONCRETE impl pointer before calling
// appendEnvelope: a nil *X boxed into the BinaryAppender parameter
// would slip past an interface nil check (the typed-nil trap).
func errZeroValueMarshal(kind Kind) error {
	return fmt.Errorf("bounded: marshal of zero-value %s (construct or UnmarshalBinary first)", kind)
}

// appendEnvelope appends a structure's framed payload to dst. The
// structure appends in place behind the header and grows the buffer by
// its own encoded length, so the frame costs one allocation.
func appendEnvelope(dst []byte, kind Kind, cfg Config, o sketchOptions, impl encoding.BinaryAppender) ([]byte, error) {
	if impl == nil {
		return nil, errZeroValueMarshal(kind)
	}
	w := wire.Append(dst, envelopeMagic, envelopeV1)
	w.U8(uint8(kind))
	w.U64(cfg.N)
	w.F64(cfg.Eps)
	w.F64(cfg.Alpha)
	w.I64(cfg.Seed)
	w.Bool(o.strict)
	w.U32(uint32(o.copies))
	w.F64(o.failureProb)
	w.U32(uint32(o.k))
	w.U32(uint32(o.capacity))
	if err := w.Marshal(impl); err != nil {
		return nil, err
	}
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
	if v != envelopeV1 {
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
	e.opts.strict = rd.Bool()
	e.opts.copies = int(rd.U32())
	e.opts.failureProb = rd.F64()
	e.opts.k = int(rd.U32())
	e.opts.capacity = int(rd.U32())
	e.payload = rd.View32()
	if err := rd.Done(); err != nil {
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

// restoreEnvelope is the shared body of the UnmarshalBinary methods:
// parse the envelope, check it holds kind, validate the Config echo,
// and decode the payload into a fresh T. Nothing is committed here, so
// a failure leaves the caller's receiver untouched.
func restoreEnvelope[T any, P interface {
	*T
	encoding.BinaryUnmarshaler
}](data []byte, kind Kind) (*envelope, P, error) {
	env, err := parseEnvelope(data, kind)
	if err != nil {
		return nil, nil, err
	}
	impl, err := restorePayload[T, P](env)
	return env, impl, err
}

// restorePayload is restoreEnvelope after the parse, for a caller that
// reads the options echo to pick T.
func restorePayload[T any, P interface {
	*T
	encoding.BinaryUnmarshaler
}](env *envelope) (P, error) {
	if err := env.cfg.Validate(); err != nil {
		return nil, err
	}
	impl := P(new(T))
	if err := impl.UnmarshalBinary(env.payload); err != nil {
		return nil, err
	}
	return impl, nil
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
func UnmarshalSketch(data []byte) (Sketch, error) {
	kind, err := SketchKind(data)
	if err != nil {
		return nil, err
	}
	s := kindTable[kind].zero()
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// MarshalBinary serializes the structure: a self-describing envelope
// (kind, Config echo, options echo) around the sketch state including
// its hash coefficients. Ship the bytes to a peer holding a same-Config
// instance and Merge there — identical to an in-process merge in the
// sketches' exact regimes.
func (h *HeavyHitters) MarshalBinary() ([]byte, error) { return h.appendBinary(nil) }

// appendBinary is MarshalBinary onto the end of dst, as on every
// structure below.
func (h *HeavyHitters) appendBinary(dst []byte) ([]byte, error) {
	if h == nil || h.impl == nil {
		return nil, errZeroValueMarshal(KindHeavyHitters)
	}
	return appendEnvelope(dst, KindHeavyHitters, h.cfg, sketchOptions{strict: h.strict}, h.impl)
}

// UnmarshalBinary restores a structure serialized by MarshalBinary. It
// works on a zero-value receiver; on failure the receiver is left
// unchanged.
func (h *HeavyHitters) UnmarshalBinary(data []byte) error {
	env, impl, err := restoreEnvelope[heavy.AlphaL1](data, KindHeavyHitters)
	if err != nil {
		return err
	}
	h.cfg, h.strict, h.impl = env.cfg, env.opts.strict, impl
	return nil
}

// MarshalBinary serializes the estimator (see HeavyHitters.MarshalBinary).
func (e *L1Estimator) MarshalBinary() ([]byte, error) { return e.appendBinary(nil) }

func (e *L1Estimator) appendBinary(dst []byte) ([]byte, error) {
	if e == nil || (e.strict == nil && e.general == nil) {
		return nil, errZeroValueMarshal(KindL1Estimator)
	}
	var impl encoding.BinaryAppender
	if e.strict != nil {
		impl = e.strict
	} else {
		impl = e.general
	}
	return appendEnvelope(dst, KindL1Estimator, e.cfg,
		sketchOptions{strict: e.strict != nil, failureProb: e.delta}, impl)
}

// UnmarshalBinary restores an estimator serialized by MarshalBinary.
func (e *L1Estimator) UnmarshalBinary(data []byte) error {
	env, err := parseEnvelope(data, KindL1Estimator)
	if err != nil {
		return err
	}
	// The options echo says which variant the payload holds.
	if env.opts.strict {
		impl, err := restorePayload[l1.AlphaEstimator](env)
		if err != nil {
			return err
		}
		e.cfg, e.delta, e.strict, e.general = env.cfg, env.opts.failureProb, impl, nil
		return nil
	}
	impl, err := restorePayload[cauchy.SampledSketch](env)
	if err != nil {
		return err
	}
	e.cfg, e.delta, e.strict, e.general = env.cfg, env.opts.failureProb, nil, impl
	return nil
}

// MarshalBinary serializes the estimator (see HeavyHitters.MarshalBinary).
func (e *L0Estimator) MarshalBinary() ([]byte, error) { return e.appendBinary(nil) }

func (e *L0Estimator) appendBinary(dst []byte) ([]byte, error) {
	if e == nil || e.impl == nil {
		return nil, errZeroValueMarshal(KindL0Estimator)
	}
	return appendEnvelope(dst, KindL0Estimator, e.cfg, sketchOptions{}, e.impl)
}

// UnmarshalBinary restores an estimator serialized by MarshalBinary.
func (e *L0Estimator) UnmarshalBinary(data []byte) error {
	env, impl, err := restoreEnvelope[l0.Estimator](data, KindL0Estimator)
	if err != nil {
		return err
	}
	e.cfg, e.impl = env.cfg, impl
	return nil
}

// MarshalBinary serializes the sampler (see HeavyHitters.MarshalBinary).
func (s *L1Sampler) MarshalBinary() ([]byte, error) { return s.appendBinary(nil) }

func (s *L1Sampler) appendBinary(dst []byte) ([]byte, error) {
	if s == nil || s.impl == nil {
		return nil, errZeroValueMarshal(KindL1Sampler)
	}
	return appendEnvelope(dst, KindL1Sampler, s.cfg, sketchOptions{copies: s.copies}, s.impl)
}

// UnmarshalBinary restores a sampler serialized by MarshalBinary.
func (s *L1Sampler) UnmarshalBinary(data []byte) error {
	env, impl, err := restoreEnvelope[sampler.Sampler](data, KindL1Sampler)
	if err != nil {
		return err
	}
	s.cfg, s.copies, s.impl = env.cfg, env.opts.copies, impl
	return nil
}

// MarshalBinary serializes the sampler (see HeavyHitters.MarshalBinary).
func (s *SupportSampler) MarshalBinary() ([]byte, error) { return s.appendBinary(nil) }

func (s *SupportSampler) appendBinary(dst []byte) ([]byte, error) {
	if s == nil || s.impl == nil {
		return nil, errZeroValueMarshal(KindSupportSampler)
	}
	return appendEnvelope(dst, KindSupportSampler, s.cfg, sketchOptions{k: s.k}, s.impl)
}

// UnmarshalBinary restores a sampler serialized by MarshalBinary.
func (s *SupportSampler) UnmarshalBinary(data []byte) error {
	env, impl, err := restoreEnvelope[support.Sampler](data, KindSupportSampler)
	if err != nil {
		return err
	}
	s.cfg, s.k, s.impl = env.cfg, env.opts.k, impl
	return nil
}

// MarshalBinary serializes the estimator (see HeavyHitters.MarshalBinary).
func (ip *InnerProduct) MarshalBinary() ([]byte, error) { return ip.appendBinary(nil) }

func (ip *InnerProduct) appendBinary(dst []byte) ([]byte, error) {
	if ip == nil || ip.impl == nil {
		return nil, errZeroValueMarshal(KindInnerProduct)
	}
	return appendEnvelope(dst, KindInnerProduct, ip.cfg, sketchOptions{}, ip.impl)
}

// UnmarshalBinary restores an estimator serialized by MarshalBinary.
func (ip *InnerProduct) UnmarshalBinary(data []byte) error {
	env, impl, err := restoreEnvelope[inner.Estimator](data, KindInnerProduct)
	if err != nil {
		return err
	}
	ip.cfg, ip.impl = env.cfg, impl
	return nil
}

// MarshalBinary serializes the structure (see HeavyHitters.MarshalBinary).
func (h *L2HeavyHitters) MarshalBinary() ([]byte, error) { return h.appendBinary(nil) }

func (h *L2HeavyHitters) appendBinary(dst []byte) ([]byte, error) {
	if h == nil || h.impl == nil {
		return nil, errZeroValueMarshal(KindL2HeavyHitters)
	}
	return appendEnvelope(dst, KindL2HeavyHitters, h.cfg, sketchOptions{}, h.impl)
}

// UnmarshalBinary restores a structure serialized by MarshalBinary.
func (h *L2HeavyHitters) UnmarshalBinary(data []byte) error {
	env, impl, err := restoreEnvelope[heavy.AlphaL2](data, KindL2HeavyHitters)
	if err != nil {
		return err
	}
	h.cfg, h.impl = env.cfg, impl
	return nil
}

// MarshalBinary serializes the sync sketch in the self-describing
// envelope every other structure uses.
func (s *SyncSketch) MarshalBinary() ([]byte, error) { return s.appendBinary(nil) }

func (s *SyncSketch) appendBinary(dst []byte) ([]byte, error) {
	if s == nil || s.impl == nil {
		return nil, errZeroValueMarshal(KindSyncSketch)
	}
	return appendEnvelope(dst, KindSyncSketch, s.cfg, sketchOptions{capacity: s.capacity}, s.impl)
}

// UnmarshalBinary restores a sync sketch serialized by MarshalBinary. It
// works on a zero-value receiver — `var s SyncSketch;
// s.UnmarshalBinary(data)` is the receive side of an exchange — and on
// failure leaves the receiver as it was.
func (s *SyncSketch) UnmarshalBinary(data []byte) error {
	env, impl, err := restoreEnvelope[sparse.Recovery](data, KindSyncSketch)
	if err != nil {
		return err
	}
	s.cfg, s.capacity, s.impl = env.cfg, env.opts.capacity, impl
	return nil
}

// syncPayload extracts the sparse-recovery frame from a sync sketch's
// envelope — the input SubRemote's subtraction consumes.
func syncPayload(data []byte) ([]byte, error) {
	env, err := parseEnvelope(data, KindSyncSketch)
	if err != nil {
		return nil, err
	}
	return env.payload, nil
}
