// streamio.go is the codec's io.Reader/io.Writer face: u32
// length-prefixed frames that carry wire payloads across a byte stream
// (a net.Conn, a pipe, a file). The in-memory Writer/Reader pair in
// wire.go frames one payload; this layer moves those payloads over a
// transport without double-buffering — the FrameReader reads the length
// prefix and then io.ReadFulls the body straight into one reusable
// buffer, so a frame crosses from the kernel socket buffer into
// decodable form with exactly one copy and zero steady-state
// allocations. The netproto package's message exchange and the
// distributedmerge example's pipe protocol are both built on it.
//
// Framing rules mirror the in-memory codec's hardening:
//
//   - the length prefix is little-endian u32, like every other integer
//     in the codec;
//   - the reader refuses prefixes above its caller-chosen cap before
//     allocating anything, and below the cap it reserves memory as the
//     body arrives, never ahead of it, so a corrupt or hostile length
//     can drive an allocation neither larger than the cap nor larger
//     than about twice what the peer has actually sent (the stream-side
//     twin of Reader's remaining-bytes guard — on a stream "remaining"
//     is unknowable, so the cap and the bytes received take its place);
//   - a clean EOF on a frame boundary reports io.EOF; an EOF inside a
//     header or body reports io.ErrUnexpectedEOF — callers can tell a
//     finished peer from a truncated one;
//   - errors are terminal: the reader latches and every later Next
//     returns the same error, because a framing failure means the
//     stream position is unknown and resynchronization is impossible.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	// FrameHeaderLen is the length-prefix size in bytes.
	FrameHeaderLen = 4
	// frameGrowStep is the least a FrameReader grows its body buffer by.
	frameGrowStep = 64 << 10
)

// WriteFrame writes payload to w as one length-prefixed frame, header
// and body in a single Write call (one syscall, one TCP segment for
// small frames). It allocates a combined buffer per call; a sender that
// builds its payload itself reserves FrameHeaderLen bytes ahead of it
// and calls SealFrame instead.
func WriteFrame(w io.Writer, payload []byte) error {
	frame, err := SealFrame(append(make([]byte, FrameHeaderLen, FrameHeaderLen+len(payload)), payload...))
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// SealFrame turns a buffer whose first FrameHeaderLen bytes were
// reserved into a frame by writing the length of the rest there.
// Payloads longer than MaxUint32 are refused (the length prefix could
// not represent them).
func SealFrame(frame []byte) ([]byte, error) {
	n := len(frame) - FrameHeaderLen
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds u32 length prefix", n)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return frame, nil
}

// FrameReader reads length-prefixed frames off an io.Reader into one
// reusable buffer — the streaming decode path for frames arriving on a
// net.Conn. Partial reads are tolerated (bodies and headers are
// assembled with io.ReadFull, so a frame split across any number of TCP
// segments decodes identically to one delivered whole). Not safe for
// concurrent use.
type FrameReader struct {
	r   io.Reader
	max uint32
	hdr [FrameHeaderLen]byte // here, not on Next's stack: it escapes through r.Read
	buf []byte
	err error
}

// NewFrameReader returns a FrameReader over r that refuses frames whose
// payload exceeds max bytes. max bounds the reader's total allocation:
// on a stream the in-memory Reader's "length exceeds remaining input"
// guard has no "remaining" to check, so the cap is the anti-OOM
// contract instead, and what a peer has sent bounds what is reserved
// for it below the cap.
func NewFrameReader(r io.Reader, max uint32) *FrameReader {
	return &FrameReader{r: r, max: max}
}

// Next returns the next frame's payload. The returned slice aliases the
// reader's internal buffer and is valid only until the following Next
// call — decode it (or copy it) before reading on. A clean EOF between
// frames returns io.EOF; EOF inside a frame returns
// io.ErrUnexpectedEOF; an oversize length prefix returns a descriptive
// error before any allocation. All errors latch: the stream position is
// unknown after a failure, so every subsequent Next repeats the error.
func (f *FrameReader) Next() ([]byte, error) {
	if f.err != nil {
		return nil, f.err
	}
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		// EOF before any header byte is the clean end of the stream;
		// anything mid-header means the peer died inside a frame.
		if err == io.EOF {
			f.err = io.EOF
		} else {
			f.err = fmt.Errorf("wire: frame header: %w", unexpectedEOF(err))
		}
		return nil, f.err
	}
	n := binary.LittleEndian.Uint32(f.hdr[:])
	if n > f.max {
		f.err = fmt.Errorf("wire: frame length %d exceeds cap %d", n, f.max)
		return nil, f.err
	}
	// A buffer that earlier frames grew is read into directly; past
	// it, each step reserves at most as much again as has arrived, so a
	// peer must send n/2 bytes before n are reserved for it.
	// (uint64: 2n must not wrap int where int is 32 bits.)
	buf := f.buf[:0]
	for uint32(len(buf)) < n {
		got := len(buf)
		end := int(min(uint64(n), max(uint64(cap(buf)), uint64(got)+max(uint64(got), frameGrowStep))))
		buf = Grow(buf, end-got)[:end]
		if _, err := io.ReadFull(f.r, buf[got:]); err != nil {
			f.err = fmt.Errorf("wire: frame body (%d bytes): %w", n, unexpectedEOF(err))
			return nil, f.err
		}
	}
	f.buf = buf
	return buf, nil
}

// unexpectedEOF normalizes a mid-read io.EOF to io.ErrUnexpectedEOF so
// callers match one sentinel for "peer died inside a frame".
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// NextReader returns the next frame opened as a wire Reader, validating
// the payload's two-byte magic and returning its format version — the
// io.Reader-based envelope decode path. The Reader decodes in place
// over the FrameReader's buffer (no copy); like Next's slice it is
// valid only until the following Next/NextReader call.
func (f *FrameReader) NextReader(magic string) (*Reader, uint8, error) {
	payload, err := f.Next()
	if err != nil {
		return nil, 0, err
	}
	return NewReader(payload, magic)
}
