// Package netproto is the networked aggregation tier's message layer:
// length-prefixed frames over a byte stream (TCP in production, any
// io.ReadWriter in tests and the distributedmerge example), each frame
// carrying one protocol message, with the library's "BD" wire envelopes
// riding inside SNAPSHOT frames exactly as MarshalBinary produced them.
//
// The conversation has two shapes:
//
//	site agent ──HELLO──────────────▶ aggregator   config + version offer
//	           ◀─────────WELCOME──── aggregator   chosen version + last seq
//	           ──SNAPSHOT(seq,gen)──▶              full sketch state
//	           ◀──────ACK(seq, P)───               committed; the union's exponent
//	           ── ... periodic SNAPSHOTs, skipped while gen is unchanged
//
//	client     ──HELLO──────────────▶ aggregator   role=client
//	           ◀─────────WELCOME────
//	           ──QUERY(id,op,keys)──▶
//	           ◀────ANSWER(id,...)──
//
// Protocol hardening follows the wire package's contract: every decode
// error is an error, never a panic; length prefixes are capped before
// allocation (wire.FrameReader's cap on the frame, the wire.Reader
// remaining-bytes guard inside it); unknown kinds, bad magic, foreign
// versions, and trailing bytes are all rejected. FuzzFrameDecode keeps
// that contract honest against truncation, oversize lengths, and
// garbage kind bytes.
//
// Version negotiation: HELLO carries the sender's [MinVersion,
// MaxVersion] range; the receiver answers WELCOME with
// Negotiate(hello)'s pick — the highest revision both ends speak — or
// an ERROR frame when the ranges do not intersect. Frame payloads
// themselves open with the "NP" magic and the envelope revision they
// are encoded at (2 today), so a reader rejects frames from an
// incompatible encoding before touching any field.
//
// Revision 2 is the only one: its ACK carries the CSSS exponent P of
// the aggregator's heavy-hitters union after the commit, the fleet's
// sampling clock, which an agent adopts so the union's rebuilds stop
// re-thinning its table. There is no revision-1 decode path: a HELLO
// offering only 1 is refused with "no common protocol version", and a
// frame encoded at revision 1 fails to decode.
package netproto

import (
	"fmt"
	"io"

	"repro/internal/wire"
)

const (
	// Magic opens every netproto frame payload.
	Magic = "NP"
	// VersionMin and VersionMax bound the protocol revisions this build
	// speaks; HELLO advertises the range and Negotiate intersects it
	// with the peer's.
	VersionMin uint8 = 2
	VersionMax uint8 = 2
	// MaxExponent caps an ACK's exponent: the largest CSSS sampling
	// exponent a sketch's encoding carries (csss Fill's bound).
	MaxExponent uint8 = 60
	// DefaultMaxFrame caps a frame payload (64 MiB): comfortably above
	// any sketch snapshot at this library's parameter ranges, small
	// enough that a hostile length prefix cannot balloon a connection
	// handler's memory.
	DefaultMaxFrame uint32 = 64 << 20
	// maxStringLen caps decoded identity strings (agent IDs, error
	// text): diagnostics, not payloads.
	maxStringLen = 1 << 10
)

// MsgKind discriminates frame payloads. Values are part of the wire
// format; never renumber.
type MsgKind uint8

const (
	KindHello MsgKind = iota + 1
	KindWelcome
	KindSnapshot
	KindAck
	KindQuery
	KindAnswer
	KindError
)

// String names the kind for diagnostics.
func (k MsgKind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindWelcome:
		return "WELCOME"
	case KindSnapshot:
		return "SNAPSHOT"
	case KindAck:
		return "ACK"
	case KindQuery:
		return "QUERY"
	case KindAnswer:
		return "ANSWER"
	case KindError:
		return "ERROR"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Role identifies what a connecting peer intends to do.
type Role uint8

const (
	// RoleAgent pushes SNAPSHOT frames; its HELLO Config must match the
	// aggregator's exactly (same seed ⇒ same hash coefficients ⇒
	// mergeable sketches).
	RoleAgent Role = iota + 1
	// RoleClient sends QUERY frames; it carries no sketch state, so its
	// HELLO Config is informational only.
	RoleClient
)

func (r Role) valid() bool { return r == RoleAgent || r == RoleClient }

// String names the role for diagnostics.
func (r Role) String() string {
	switch r {
	case RoleAgent:
		return "agent"
	case RoleClient:
		return "client"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Msg is one decoded protocol message.
type Msg interface {
	Kind() MsgKind
	encode(w *wire.Writer)
}

// ConfigEcho is the sketch Config carried in HELLO — mirrored here
// rather than importing the root package so netproto stays a leaf that
// both the library and its tools can use.
type ConfigEcho struct {
	N     uint64
	Eps   float64
	Alpha float64
	Seed  int64
}

// Hello opens every connection: who is connecting, which protocol
// revisions it speaks, and (for agents) the Config its sketches were
// built from plus the structure set it will ship. Shards is
// informational — snapshots carry engine-merged full-stream state, so
// peers may run different shard counts and still merge exactly.
type Hello struct {
	Role       Role
	Agent      string
	MinVersion uint8
	MaxVersion uint8
	Config     ConfigEcho
	Structures uint32
	Shards     uint32
}

// Kind implements Msg.
func (*Hello) Kind() MsgKind { return KindHello }

func (m *Hello) encode(w *wire.Writer) {
	w.U8(uint8(m.Role))
	w.Bytes32([]byte(m.Agent))
	w.U8(m.MinVersion)
	w.U8(m.MaxVersion)
	w.U64(m.Config.N)
	w.F64(m.Config.Eps)
	w.F64(m.Config.Alpha)
	w.I64(m.Config.Seed)
	w.U32(m.Structures)
	w.U32(m.Shards)
}

func decodeHello(r *wire.Reader) (*Hello, error) {
	m := &Hello{}
	m.Role = Role(r.U8())
	var err error
	if m.Agent, err = decodeString(r, "agent id"); err != nil {
		return nil, err
	}
	m.MinVersion = r.U8()
	m.MaxVersion = r.U8()
	m.Config = ConfigEcho{N: r.U64(), Eps: r.F64(), Alpha: r.F64(), Seed: r.I64()}
	m.Structures = r.U32()
	m.Shards = r.U32()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if !m.Role.valid() {
		return nil, fmt.Errorf("netproto: HELLO with unknown role %d", uint8(m.Role))
	}
	if m.MinVersion > m.MaxVersion {
		return nil, fmt.Errorf("netproto: HELLO version range [%d,%d] is inverted", m.MinVersion, m.MaxVersion)
	}
	return m, nil
}

// Welcome accepts a HELLO: the negotiated protocol version and, for
// agents, the last snapshot sequence number the receiver has committed
// from this agent ID (0 when it holds none) — the signal that tells a
// reconnecting agent whether its state survived on the aggregator or a
// full resend is needed.
type Welcome struct {
	Version uint8
	LastSeq uint64
}

// Kind implements Msg.
func (*Welcome) Kind() MsgKind { return KindWelcome }

func (m *Welcome) encode(w *wire.Writer) {
	w.U8(m.Version)
	w.U64(m.LastSeq)
}

func decodeWelcome(r *wire.Reader) (*Welcome, error) {
	m := &Welcome{Version: r.U8(), LastSeq: r.U64()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Snapshot pushes an agent's full sketch state. Seq strictly increases
// per agent across connections; the aggregator commits a snapshot
// atomically (all blobs decoded or none applied) and answers ACK{Seq}.
// Gen echoes the agent engine's generation counter at marshal time —
// the incremental-sync token: a sync tick whose generation still equals
// the last ACKed one ships nothing.
//
// Snapshots carry full state, not deltas, which makes them idempotent:
// re-sending after a lost ACK or a reconnect REPLACES the agent's
// previous contribution instead of double-counting it.
type Snapshot struct {
	Seq uint64
	Gen uint64
	// Sketches holds one blob per structure: the engine.Structures bit
	// naming it and the exact MarshalBinary bytes ("BD" envelope) of its
	// engine-merged full-stream state.
	Sketches []wire.Blob
}

// Kind implements Msg.
func (*Snapshot) Kind() MsgKind { return KindSnapshot }

func (m *Snapshot) encode(w *wire.Writer) {
	w.U64(m.Seq)
	w.U64(m.Gen)
	w.Blobs(m.Sketches)
}

func decodeSnapshot(r *wire.Reader) (*Snapshot, error) {
	m := &Snapshot{Seq: r.U64(), Gen: r.U64(), Sketches: r.Blobs()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for _, s := range m.Sketches {
		if s.Bit == 0 || s.Bit&(s.Bit-1) != 0 {
			return nil, fmt.Errorf("netproto: SNAPSHOT blob names %#x, want a single structure bit", s.Bit)
		}
	}
	return m, nil
}

// Ack commits a SNAPSHOT: the aggregator has decoded every blob and
// atomically replaced the agent's previous state. Exponent is P, the
// CSSS exponent the aggregator's heavy-hitters union has after this
// commit (0 while it is exact): the next merged-view build reaches
// exactly P, and an agent whose own exponent is below it thins to it.
type Ack struct {
	Seq      uint64
	Exponent uint8
}

// Kind implements Msg.
func (*Ack) Kind() MsgKind { return KindAck }

func (m *Ack) encode(w *wire.Writer) {
	w.U64(m.Seq)
	w.U8(m.Exponent)
}

func decodeAck(r *wire.Reader) (*Ack, error) {
	m := &Ack{Seq: r.U64(), Exponent: r.U8()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if m.Exponent > MaxExponent {
		return nil, fmt.Errorf("netproto: ACK exponent %d exceeds %d", m.Exponent, MaxExponent)
	}
	return m, nil
}

// QueryOp selects what a QUERY asks of the aggregator's merged global
// state. Values are part of the wire format; never renumber.
type QueryOp uint8

const (
	// OpEstimate returns the heavy-hitters point estimate for every key,
	// in input order (Answer.Values).
	OpEstimate QueryOp = iota + 1
	// OpHeavyHitters returns the eps-heavy coordinates (Answer.Keys).
	OpHeavyHitters
	// OpL1 returns the L1-norm estimate (Answer.Values[0]).
	OpL1
	// OpSupport returns the recovered support set (Answer.Keys).
	OpSupport
)

func (op QueryOp) valid() bool { return op >= OpEstimate && op <= OpSupport }

// String names the op for diagnostics.
func (op QueryOp) String() string {
	switch op {
	case OpEstimate:
		return "estimate"
	case OpHeavyHitters:
		return "heavyhitters"
	case OpL1:
		return "l1"
	case OpSupport:
		return "support"
	}
	return fmt.Sprintf("QueryOp(%d)", uint8(op))
}

// Query asks the aggregator to answer op over the merged global state.
// ID is echoed in the ANSWER so a pipelining client can match them.
type Query struct {
	ID   uint64
	Op   QueryOp
	Keys []uint64
}

// Kind implements Msg.
func (*Query) Kind() MsgKind { return KindQuery }

func (m *Query) encode(w *wire.Writer) {
	w.U64(m.ID)
	w.U8(uint8(m.Op))
	w.U64s(m.Keys)
}

func decodeQuery(r *wire.Reader) (*Query, error) {
	m := &Query{ID: r.U64(), Op: QueryOp(r.U8()), Keys: r.U64s()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if !m.Op.valid() {
		return nil, fmt.Errorf("netproto: QUERY with unknown op %d", uint8(m.Op))
	}
	return m, nil
}

// Answer carries a QUERY's result: Values for point/scalar ops, Keys
// for set-valued ops, Err when the aggregator could not answer (the
// connection stays usable; ERROR frames are reserved for fatal
// protocol violations).
type Answer struct {
	ID     uint64
	Err    string
	Values []float64
	Keys   []uint64
}

// Kind implements Msg.
func (*Answer) Kind() MsgKind { return KindAnswer }

func (m *Answer) encode(w *wire.Writer) {
	w.U64(m.ID)
	w.Bytes32([]byte(m.Err))
	w.F64s(m.Values)
	w.U64s(m.Keys)
}

func decodeAnswer(r *wire.Reader) (*Answer, error) {
	m := &Answer{ID: r.U64()}
	var err error
	if m.Err, err = decodeString(r, "answer error"); err != nil {
		return nil, err
	}
	m.Values = r.F64s()
	m.Keys = r.U64s()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Error reports a fatal protocol failure (config mismatch, version
// range disjoint, malformed frame); the sender closes the connection
// after writing it.
type Error struct {
	Msg string
}

// Kind implements Msg.
func (*Error) Kind() MsgKind { return KindError }

func (m *Error) encode(w *wire.Writer) { w.Bytes32([]byte(m.Msg)) }

func decodeError(r *wire.Reader) (*Error, error) {
	msg, err := decodeString(r, "error text")
	if err != nil {
		return nil, err
	}
	m := &Error{Msg: msg}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeString reads a length-prefixed string, capping it at
// maxStringLen: identity and diagnostic strings are short by contract,
// and the cap keeps a hostile frame from dressing a payload up as one.
// (The wire Reader already bounds the bytes by the frame size; this is
// the semantic cap on top.)
func decodeString(r *wire.Reader, what string) (string, error) {
	b := r.Bytes32()
	if r.Err() == nil && len(b) > maxStringLen {
		return "", fmt.Errorf("netproto: %s length %d exceeds cap %d", what, len(b), maxStringLen)
	}
	return string(b), nil
}

// Encode serializes one message as a frame payload (no length prefix;
// pair it with wire.WriteFrame, or send it with a MessageWriter).
func Encode(m Msg) []byte { return appendMessage(nil, m) }

// appendMessage appends one message's frame payload to dst.
func appendMessage(dst []byte, m Msg) []byte {
	w := wire.Append(dst, Magic, VersionMax)
	w.U8(uint8(m.Kind()))
	m.encode(w)
	return w.Bytes()
}

// Decode parses one frame payload. Errors, never panics: bad magic,
// foreign envelope versions, unknown kinds, truncated fields, oversize
// length prefixes, and trailing bytes are all rejected with
// descriptive errors.
func Decode(payload []byte) (Msg, error) {
	r, version, err := wire.NewReader(payload, Magic)
	if err != nil {
		return nil, err
	}
	if version < VersionMin || version > VersionMax {
		return nil, fmt.Errorf("netproto: unsupported envelope version %d (speak %d..%d)", version, VersionMin, VersionMax)
	}
	kind := MsgKind(r.U8())
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case KindHello:
		return decodeHello(r)
	case KindWelcome:
		return decodeWelcome(r)
	case KindSnapshot:
		return decodeSnapshot(r)
	case KindAck:
		return decodeAck(r)
	case KindQuery:
		return decodeQuery(r)
	case KindAnswer:
		return decodeAnswer(r)
	case KindError:
		return decodeError(r)
	}
	return nil, fmt.Errorf("netproto: unknown message kind %d", uint8(kind))
}

// Negotiate picks the protocol version for a connection: the highest
// revision inside both this build's [VersionMin, VersionMax] and the
// HELLO's advertised range, or an error when the ranges are disjoint.
func Negotiate(h *Hello) (uint8, error) {
	hi := VersionMax
	if h.MaxVersion < hi {
		hi = h.MaxVersion
	}
	lo := VersionMin
	if h.MinVersion > lo {
		lo = h.MinVersion
	}
	if lo > hi {
		return 0, fmt.Errorf("netproto: no common protocol version (we speak %d..%d, peer %d..%d)",
			VersionMin, VersionMax, h.MinVersion, h.MaxVersion)
	}
	return hi, nil
}

// WriteMessage frames and writes one message. It allocates per call;
// hot paths hold a MessageWriter instead.
func WriteMessage(w io.Writer, m Msg) error { return NewMessageWriter(w).Write(m) }

// MessageWriter writes framed messages over one stream. A frame is
// built where it is sent: the message encodes into the writer's one
// buffer behind a reserved length prefix, which is reused across sends,
// so a steady snapshot or query stream allocates only when a frame
// outgrows every earlier one. Not safe for concurrent use; connection
// owners serialize their writes.
type MessageWriter struct {
	w   io.Writer
	buf []byte
}

// NewMessageWriter returns a MessageWriter over w.
func NewMessageWriter(w io.Writer) *MessageWriter { return &MessageWriter{w: w} }

// Write frames one message and writes it with a single Write call (one
// syscall, one TCP segment for small frames).
func (mw *MessageWriter) Write(m Msg) error {
	mw.buf = appendMessage(append(mw.buf[:0], make([]byte, wire.FrameHeaderLen)...), m)
	frame, err := wire.SealFrame(mw.buf)
	if err != nil {
		return err
	}
	_, err = mw.w.Write(frame)
	return err
}

// MessageReader reads framed messages off one stream — wire.FrameReader
// (streaming frame assembly, partial-read tolerant, size-capped)
// composed with Decode. ALL errors latch, decode failures included: a
// peer that ships one malformed message is dead to this reader, the
// same judgment every connection handler would make, made once here so
// no handler can accidentally keep parsing after a violation.
type MessageReader struct {
	fr  *wire.FrameReader
	err error
}

// NewMessageReader returns a MessageReader over r refusing frames above
// max payload bytes (0 means DefaultMaxFrame).
func NewMessageReader(r io.Reader, max uint32) *MessageReader {
	if max == 0 {
		max = DefaultMaxFrame
	}
	return &MessageReader{fr: wire.NewFrameReader(r, max)}
}

// Next returns the next message. Snapshot payload slices alias the
// reader's frame buffer and are valid only until the following Next
// call — decode them (bounded.UnmarshalSketch copies what it keeps)
// before reading on. io.EOF reports a clean close on a frame boundary.
func (mr *MessageReader) Next() (Msg, error) {
	if mr.err != nil {
		return nil, mr.err
	}
	payload, err := mr.fr.Next()
	if err != nil {
		mr.err = err
		return nil, err
	}
	m, err := Decode(payload)
	if err != nil {
		mr.err = err
		return nil, err
	}
	return m, nil
}
