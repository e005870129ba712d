// Package wire is the shared binary codec behind every structure's
// MarshalBinary/UnmarshalBinary. All sketches in this library are linear
// (or monotone) functions of their input stream, which makes them
// shippable: a summary built on one machine can be serialized, sent to a
// peer that holds a same-seed instance, and merged there exactly as if
// both streams had been ingested in one process. The codec gives every
// package the same framing so that property holds uniformly:
//
//   - an envelope (the public "BD" sketch frame, the partitioned
//     snapshot, a checkpoint) opens with a two-byte magic plus a
//     one-byte format version, so a reader can reject foreign or stale
//     bytes up front; the structure state inside a "BD" frame carries
//     neither, because the frame's version is the format's one version;
//   - a structure's state holds exactly what Update and Merge can
//     change — counters, clocks, candidates, live levels. Dimensions,
//     primes and hash wirings are what its constructor derives from the
//     Config, so they never travel: a reader builds the structure as
//     New does and Fills it, and a state that does not fit that shape
//     is refused;
//   - all integers are little-endian fixed-width (no varints: fixed
//     width keeps the reader allocation-bounded); a count column, which
//     dominates payload sizes, is fixed-width too, at the byte width
//     most of its entries need, with the few wider entries patched in
//     behind it by index (packed.go), so a table travels in about the
//     bits its typical counter needs;
//   - variable-length lists are u32-count-prefixed, and the reader
//     refuses any count that exceeds the bytes actually remaining, so a
//     corrupt length can never drive an allocation larger than the input
//     itself (the FuzzUnmarshal contract: errors, never panics or OOM).
//     Arrays whose length the shape fixes (the Fixed methods) carry no
//     count.
//
// The Reader is sticky: the first framing error latches, subsequent
// reads return zero values, and Done() reports the latched error plus a
// trailing-garbage check. Envelope decoders parse into locals, call
// Done(), validate ranges, and only then commit to the receiver, so a
// failed restore leaves the receiver untouched; a structure's Fill
// writes into a receiver fresh from its constructor, which its owner
// discards on failure.
//
// Nesting rule: a structure encodes itself with AppendBinary(dst), and a
// parent nests a child with Writer.Marshal, which lets the child append
// to the SAME buffer — no level copies the level below it. A child must
// therefore never write below len(dst): what is there belongs to its
// ancestors. MarshalBinary is AppendBinary(nil) everywhere.
//
// Aliasing rule: Reader.View32, Reader.Take and Reader.Blobs (every Blob
// payload) hand out slices of the reader's INPUT, not copies. They are
// for a caller that decodes the bytes into its own arrays before the
// input can change — which every UnmarshalBinary in this library does
// (the round-trip tests overwrite the input afterwards to catch one that
// does not). Bytes32 is the copying read.
package wire

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates one framed payload at the end of a buffer.
type Writer struct {
	buf []byte
}

// NewWriter opens a payload in a buffer of its own.
func NewWriter(magic string, version uint8) *Writer {
	return Append(nil, magic, version)
}

// Append opens a payload at the end of dst — a two-character package
// magic and a format version byte — leaving dst's own bytes untouched;
// Bytes returns dst extended by the payload.
func Append(dst []byte, magic string, version uint8) *Writer {
	if len(magic) != 2 {
		panic("wire: magic must be exactly two bytes")
	}
	return &Writer{buf: append(dst, magic[0], magic[1], version)}
}

// State opens a structure's state at the end of dst: no magic and no
// version, which belong to the envelope around it.
func State(dst []byte) *Writer { return &Writer{buf: dst} }

// Bytes returns the buffer: what Append was given, then the payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow returns dst with room for n more bytes behind it, reallocating
// to exactly that when it has less — so a structure that knows its
// encoded length pays for one buffer of that length, and copies what
// its ancestors already wrote at most once.
func Grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// Grow makes room for n more bytes (see the function Grow).
func (w *Writer) Grow(n int) { w.buf = Grow(w.buf, n) }

// Extend appends n bytes and returns them for the caller to fill with
// fixed-offset stores — the bulk write under every counter table.
func (w *Writer) Extend(n int) []byte {
	at := len(w.buf)
	w.buf = Grow(w.buf, n)[:at+n]
	return w.buf[at:]
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 appends a u32-length-prefixed byte slice.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// U64s appends a u32-count-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.U32(uint32(len(v)))
	w.FixedU64s(v)
}

// F64s appends a u32-count-prefixed []float64.
func (w *Writer) F64s(v []float64) {
	w.U32(uint32(len(v)))
	w.FixedF64s(v)
}

// Blob is one structure's serialized state as every container ships
// it: the engine Structures bit it is filed under and the structure's
// own self-describing "BD" envelope bytes. A site's state is a list of
// these — one per structure — and the partitioned engine snapshot
// ("BP"), the aggregator checkpoint ("AG") and the netproto SNAPSHOT
// frame all carry that one list layout:
//
//	u32 n, n × (u32 bit, bytes32 payload)
//
// The codec is structural only; engine.DecodeBlobs owns the semantic
// checks (known bit, accept mask, tag/kind agreement, Config echo).
type Blob struct {
	Bit     uint32
	Payload []byte
}

// blobsLen is the encoded length of a blob list: what a container
// grows its buffer by before it copies the payloads in.
func blobsLen(blobs []Blob) int {
	n := 4
	for _, b := range blobs {
		n += 8 + len(b.Payload)
	}
	return n
}

// Blobs appends a bit-tagged blob list.
func (w *Writer) Blobs(blobs []Blob) {
	w.Grow(blobsLen(blobs))
	w.U32(uint32(len(blobs)))
	for _, b := range blobs {
		w.U32(b.Bit)
		w.Bytes32(b.Payload)
	}
}

// Marshal appends a nested structure's state in place: the child's
// length is a function of its shape, which the reader knows, and of the
// widths and patch counts its count columns name ahead of themselves. A state
// encoding cannot fail — it is counters written into a buffer — so an
// error from one is a bug, and panics.
func (w *Writer) Marshal(m encoding.BinaryAppender) {
	buf, err := m.AppendBinary(w.buf)
	if err != nil {
		panic(fmt.Sprintf("wire: encoding a %T: %v", m, err))
	}
	w.buf = buf
}

// FixedU64s appends v without a count: the reader knows len(v) from the
// structure's shape. FixedI64s and FixedF64s are its twins.
func (w *Writer) FixedU64s(v []uint64) {
	b := w.Extend(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// FixedI64s appends v without a count (see FixedU64s).
func (w *Writer) FixedI64s(v []int64) {
	b := w.Extend(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// FixedF64s appends v without a count (see FixedU64s).
func (w *Writer) FixedF64s(v []float64) {
	b := w.Extend(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// Reader consumes one framed payload. Errors latch: after the first
// framing failure every read returns zero and Done reports the error.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader validates the magic and returns the reader plus the format
// version byte.
func NewReader(data []byte, magic string) (*Reader, uint8, error) {
	if len(magic) != 2 {
		panic("wire: magic must be exactly two bytes")
	}
	if len(data) < 3 || data[0] != magic[0] || data[1] != magic[1] {
		return nil, 0, fmt.Errorf("wire: bad magic (want %q)", magic)
	}
	return &Reader{data: data, pos: 3}, data[2], nil
}

// fail latches the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// Take returns the next n bytes WITHOUT copying them (see the package
// comment's aliasing rule), or nil after latching a truncation error —
// the one bounds check under a bulk read, which then decodes with
// fixed-offset loads.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("wire: truncated payload (need %d bytes, have %d)", n, r.Remaining())
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Need reports whether n more bytes remain, latching a truncation
// error when they do not: the check a Fill runs before it allocates a
// level its shape sizes, so no allocation outgrows the input.
func (r *Reader) Need(n int) bool {
	if r.err == nil && (n < 0 || r.Remaining() < n) {
		r.fail("wire: truncated payload (need %d bytes, have %d)", n, r.Remaining())
	}
	return r.err == nil
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("wire: invalid bool byte %d", v)
		return false
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u32 length prefix whose elements occupy elemBytes each,
// refusing prefixes that exceed the remaining input (the anti-OOM
// guard: a corrupt length can never allocate more than the input size).
// The comparison runs in int64 so a near-2^32 prefix cannot wrap int on
// 32-bit platforms and slip past the guard.
func (r *Reader) count(elemBytes int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemBytes) > int64(r.Remaining()) {
		r.fail("wire: length prefix %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}

// View32 reads a u32-length-prefixed byte slice WITHOUT copying it.
func (r *Reader) View32() []byte { return r.Take(r.count(1)) }

// Bytes32 reads a u32-length-prefixed byte slice (copied).
func (r *Reader) Bytes32() []byte {
	b := r.View32()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// U64s reads a u32-count-prefixed []uint64; count has held the prefix
// against the remaining input before it sizes anything.
func (r *Reader) U64s() []uint64 {
	out := make([]uint64, r.count(8))
	r.FixedU64s(out)
	if r.err != nil {
		return nil
	}
	return out
}

// F64s reads a u32-count-prefixed []float64 (see U64s).
func (r *Reader) F64s() []float64 {
	out := make([]float64, r.count(8))
	r.FixedF64s(out)
	if r.err != nil {
		return nil
	}
	return out
}

// Blobs reads a bit-tagged blob list (nil when empty) whose payloads
// alias the reader's input. The count is bounded by the input — each
// blob costs at least its 4-byte bit and 4-byte length prefix — and the
// loop stops at the first missing byte, so a hostile count can neither
// allocate past the input size nor spin.
func (r *Reader) Blobs() []Blob {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	blobs := make([]Blob, 0, n)
	for len(blobs) < n {
		b := Blob{Bit: r.U32(), Payload: r.View32()}
		if r.err != nil {
			return nil
		}
		blobs = append(blobs, b)
	}
	return blobs
}

// FixedU64s fills dst from len(dst) uncounted words (Writer.FixedU64s).
// FixedI64s and FixedF64s are its twins.
func (r *Reader) FixedU64s(dst []uint64) {
	if b := r.Take(8 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
}

// FixedI64s fills dst from len(dst) uncounted words (see FixedU64s).
func (r *Reader) FixedI64s(dst []int64) {
	if b := r.Take(8 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// FixedF64s fills dst from len(dst) uncounted words (see FixedU64s).
func (r *Reader) FixedF64s(dst []float64) {
	if b := r.Take(8 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// Count reads a u32 list length whose entries occupy at least elemBytes
// each, refusing one above max or one the remaining input cannot hold
// (see count): a list a structure sizes by it costs O(1) per input byte.
func (r *Reader) Count(elemBytes, max int) int {
	n := r.count(elemBytes)
	if n > max {
		r.fail("wire: list of %d entries exceeds the shape's %d", n, max)
		return 0
	}
	return n
}

// Fail latches err as the reader's error (a no-op after the first) —
// how a Fill reports a well-framed value its shape refuses.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Offset is the reader's position; Since(Offset()) later returns what
// was read in between.
func (r *Reader) Offset() int { return r.pos }

// Since returns the input read from offset at on, aliased.
func (r *Reader) Since(at int) []byte { return r.data[at:r.pos] }

// Filler is a structure whose state a reader fills: the receiver comes
// fresh from its constructor, so every dimension and hash wiring is
// already in place, and Fill reads only what Update and Merge change.
// It reports a malformed state through the reader (Fail) — Fill itself
// returns nothing, so a parent fills its children in sequence and
// checks once.
type Filler interface {
	Fill(r *Reader)
}

// Fill fills f from data, which must hold exactly f's state.
func Fill(data []byte, f Filler) error {
	r := &Reader{data: data}
	f.Fill(r)
	return r.Done()
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Done reports the latched error, or a trailing-garbage error when
// unread bytes remain. Call it before committing parsed state.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return nil
}

// Seed derives a deterministic 63-bit rng seed from a payload.
// Structures that embed a rand source cannot serialize Go's generator
// state portably; instead a restored instance reseeds from its own wire
// bytes. The seed only drives FUTURE sampling decisions — restored
// counters are exact — so any fixed function of the state preserves the
// sketches' probabilistic guarantees while keeping unmarshal
// deterministic (equal bytes restore equal structures). It sits under
// every decode of an rng-bearing table, so it reads the payload a
// little-endian word at a time — four words of a 32-byte block into
// four lanes whose multiplies overlap, then the lanes, the words left
// over and the tail bytes singly into one state. Each step is one-to-one
// in the running state and in the word, so payloads of one length that
// differ anywhere leave different states.
func Seed(data []byte) int64 {
	const basis = 14695981039346656037
	h := seedStep(basis, uint64(len(data)))
	a, b, c, d := uint64(basis), uint64(basis+1), uint64(basis+2), uint64(basis+3)
	for ; len(data) >= 32; data = data[32:] {
		a = seedStep(a, binary.LittleEndian.Uint64(data))
		b = seedStep(b, binary.LittleEndian.Uint64(data[8:]))
		c = seedStep(c, binary.LittleEndian.Uint64(data[16:]))
		d = seedStep(d, binary.LittleEndian.Uint64(data[24:]))
	}
	h = seedStep(seedStep(seedStep(seedStep(h, a), b), c), d)
	for ; len(data) >= 8; data = data[8:] {
		h = seedStep(h, binary.LittleEndian.Uint64(data))
	}
	for _, b := range data {
		h = seedStep(h, uint64(b))
	}
	return int64(h &^ (1 << 63))
}

// seedStep folds one word into the state: xor, an odd multiply and an
// xor-shift that brings the well-mixed high half back down.
func seedStep(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}
