// Package wire is the shared binary codec behind every structure's
// MarshalBinary/UnmarshalBinary. All sketches in this library are linear
// (or monotone) functions of their input stream, which makes them
// shippable: a summary built on one machine can be serialized, sent to a
// peer that holds a same-seed instance, and merged there exactly as if
// both streams had been ingested in one process. The codec gives every
// package the same framing so that property holds uniformly:
//
//   - a two-byte package magic plus a one-byte format version open every
//     payload, so a reader can reject foreign or stale bytes up front
//     instead of mis-wiring a structure;
//   - all integers are little-endian fixed-width (no varints: payload
//     sizes are dominated by counter tables, and fixed width keeps the
//     reader allocation-bounded);
//   - slices and nested messages are u32-length-prefixed, and the reader
//     refuses any prefix that exceeds the bytes actually remaining, so a
//     corrupt length can never drive an allocation larger than the input
//     itself (the FuzzUnmarshal contract: errors, never panics or OOM).
//
// The Reader is sticky: the first framing error latches, subsequent
// reads return zero values, and Done() reports the latched error plus a
// trailing-garbage check. Unmarshal implementations parse into locals,
// call Done(), validate ranges, and only then commit to the receiver, so
// a failed restore leaves the receiver untouched.
package wire

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates one framed payload.
type Writer struct {
	buf []byte
}

// NewWriter opens a payload with a two-character package magic and a
// format version byte.
func NewWriter(magic string, version uint8) *Writer {
	if len(magic) != 2 {
		panic("wire: magic must be exactly two bytes")
	}
	w := &Writer{buf: make([]byte, 0, 64)}
	w.buf = append(w.buf, magic[0], magic[1], version)
	return w
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

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
	for _, x := range v {
		w.U64(x)
	}
}

// I64s appends a u32-count-prefixed []int64.
func (w *Writer) I64s(v []int64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

// F64s appends a u32-count-prefixed []float64.
func (w *Writer) F64s(v []float64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.F64(x)
	}
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

// Blobs appends a bit-tagged blob list.
func (w *Writer) Blobs(blobs []Blob) {
	w.U32(uint32(len(blobs)))
	for _, b := range blobs {
		w.U32(b.Bit)
		w.Bytes32(b.Payload)
	}
}

// Marshal appends a nested BinaryMarshaler as a length-prefixed blob.
func (w *Writer) Marshal(m encoding.BinaryMarshaler) error {
	enc, err := m.MarshalBinary()
	if err != nil {
		return err
	}
	w.Bytes32(enc)
	return nil
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

// take returns the next n bytes, or nil after latching a truncation
// error.
func (r *Reader) take(n int) []byte {
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

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
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
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
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

// View32 reads a u32-length-prefixed byte slice WITHOUT copying it: the
// result aliases the reader's input, so it is for a caller that decodes
// the bytes into its own arrays before the input can change.
func (r *Reader) View32() []byte { return r.take(r.count(1)) }

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

// U64s reads a u32-count-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64s reads a u32-count-prefixed []int64.
func (r *Reader) I64s() []int64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// F64s reads a u32-count-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Blobs reads a bit-tagged blob list (nil when empty). The count is
// bounded by the input — each blob costs at least its 4-byte bit and
// 4-byte length prefix — and the loop stops at the first missing byte,
// so a hostile count can neither allocate past the input size nor spin.
func (r *Reader) Blobs() []Blob {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	blobs := make([]Blob, 0, n)
	for len(blobs) < n {
		b := Blob{Bit: r.U32(), Payload: r.Bytes32()}
		if r.err != nil {
			return nil
		}
		blobs = append(blobs, b)
	}
	return blobs
}

// Unmarshal reads a length-prefixed nested blob into m.
func (r *Reader) Unmarshal(m encoding.BinaryUnmarshaler) {
	b := r.View32()
	if r.err != nil {
		return
	}
	if err := m.UnmarshalBinary(b); err != nil {
		r.fail("wire: nested payload: %w", err)
	}
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

// Seed derives a deterministic 63-bit rng seed from a payload (FNV-1a).
// Structures that embed a rand source cannot serialize Go's generator
// state portably; instead a restored instance reseeds from its own wire
// bytes. The seed only drives FUTURE sampling decisions — restored
// counters are exact — so any fixed function of the state preserves the
// sketches' probabilistic guarantees while keeping unmarshal
// deterministic (equal bytes restore equal structures).
func Seed(data []byte) int64 {
	var h uint64 = 14695981039346656037
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int64(h &^ (1 << 63))
}
