package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 4096),
		[]byte("tail"),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	fr := NewFrameReader(&buf, 1<<20)
	for i, want := range payloads {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
	// The error latches.
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("latched: got %v, want io.EOF", err)
	}
}

// TestFramePartialReads splits the stream into one-byte reads: frames
// assembled with io.ReadFull must decode identically to whole delivery.
func TestFramePartialReads(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("split me across many reads")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte("second")); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(iotest.OneByteReader(&buf), 1<<20)
	first, err := fr.Next()
	if err != nil || string(first) != "split me across many reads" {
		t.Fatalf("first frame: %q, %v", first, err)
	}
	second, err := fr.Next()
	if err != nil || string(second) != "second" {
		t.Fatalf("second frame: %q, %v", second, err)
	}
}

func TestFrameOversizeRejectedBeforeAllocation(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<31)
	fr := NewFrameReader(bytes.NewReader(hdr[:]), 1<<16)
	if _, err := fr.Next(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("oversize prefix: got %v, want cap error", err)
	}
	if cap(fr.buf) != 0 {
		t.Fatalf("oversize prefix allocated %d bytes", cap(fr.buf))
	}
}

func TestFrameTruncation(t *testing.T) {
	// EOF inside the header.
	fr := NewFrameReader(bytes.NewReader([]byte{1, 0}), 1<<16)
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-header EOF: got %v, want ErrUnexpectedEOF", err)
	}
	// EOF inside the body.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("truncated payload")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	fr = NewFrameReader(bytes.NewReader(cut), 1<<16)
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-body EOF: got %v, want ErrUnexpectedEOF", err)
	}
	// Latched: the same error repeats.
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("latched: got %v", err)
	}
}

// TestFrameBufferReuse pins the no-double-buffering contract: after the
// first adequately-sized frame, later smaller frames reuse the same
// backing array.
func TestFrameBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	big := bytes.Repeat([]byte{1}, 1024)
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&buf, []byte("small")); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf, 1<<20)
	first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	base := &first[0]
	for i := 0; i < 3; i++ {
		p, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if &p[0] != base {
			t.Fatalf("frame %d did not reuse the buffer", i)
		}
	}
}

func TestWriteFrameSingleWrite(t *testing.T) {
	// The header and body must land in one Write call so small frames
	// are one TCP segment.
	var calls int
	w := writerFunc(func(p []byte) (int, error) {
		calls++
		return len(p), nil
	})
	if err := WriteFrame(w, []byte("one segment")); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("WriteFrame used %d Write calls, want 1", calls)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFrameReaderAllocatesWhatArrives: a header may claim the whole cap,
// but memory is reserved as the body arrives, so a peer that sends ten
// bytes and hangs up has cost the reader one growth step, not the cap.
func TestFrameReaderAllocatesWhatArrives(t *testing.T) {
	const claimed = 64 << 20
	stream := binary.LittleEndian.AppendUint32(nil, claimed)
	stream = append(stream, "ten bytes!"...)
	fr := NewFrameReader(bytes.NewReader(stream), claimed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fr.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: got %v, want ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte claim backed by 10 bytes allocated %d bytes", claimed, got)
	}
	if _, again := fr.Next(); again != err {
		t.Fatalf("latched: got %v, want %v", again, err)
	}

	// A body that does arrive is assembled across the growth steps, and
	// the buffer it leaves behind serves the next frame as it is.
	big := make([]byte, 5*frameGrowStep+123)
	rand.New(rand.NewSource(3)).Read(big)
	var buf bytes.Buffer
	for i := 0; i < 3; i++ { // AllocsPerRun reads two: a warm-up and the measured one
		if err := WriteFrame(&buf, big); err != nil {
			t.Fatal(err)
		}
	}
	fr = NewFrameReader(iotest.HalfReader(&buf), 1<<20)
	first, err := fr.Next()
	if err != nil || !bytes.Equal(first, big) {
		t.Fatalf("grown frame: %d bytes, %v", len(first), err)
	}
	base := &first[0]
	if allocs := testing.AllocsPerRun(1, func() { first, err = fr.Next() }); allocs != 0 {
		t.Errorf("a later frame of the same size allocated %v times", allocs)
	}
	if err != nil || !bytes.Equal(first, big) || &first[0] != base {
		t.Fatalf("reused buffer: %d bytes, %v, same array %v", len(first), err, &first[0] == base)
	}
}
