package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("engine state v1")
	seq, err := s.Save(payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	got, gotSeq, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq || !bytes.Equal(got, payload) {
		t.Fatalf("Load = (%q, %d), want (%q, %d)", got, gotSeq, payload, seq)
	}

	// A re-opened store continues the sequence and recovers the same
	// payload.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, gotSeq, err = s2.Load()
	if err != nil || gotSeq != seq || !bytes.Equal(got, payload) {
		t.Fatalf("reopened Load = (%q, %d, %v), want (%q, %d, nil)", got, gotSeq, err, payload, seq)
	}
	if next, err := s2.Save([]byte("v2")); err != nil || next != 2 {
		t.Fatalf("reopened Save = (%d, %v), want (2, nil)", next, err)
	}
}

func TestLoadEmptyDirErrors(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load on empty dir = %v, want ErrNoCheckpoint", err)
	}
}

func TestLoadCorruptOnlyDirErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := s.Save([]byte(fmt.Sprintf("state %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt every data file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load on corrupt-only dir = %v, want ErrNoCheckpoint", err)
	}
	if st := s.Stats(); st.SkippedCorrupt == 0 {
		t.Fatal("corrupt files skipped without counting")
	}
}

func TestRetentionPrunes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := s.Save([]byte(fmt.Sprintf("state %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := s.listSeqs()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("retained seqs = %v, want [4 5]", seqs)
	}
	if st := s.Stats(); st.Pruned != 3 || st.Kept != 2 {
		t.Fatalf("Stats pruned/kept = %d/%d, want 3/2", st.Pruned, st.Kept)
	}
	got, seq, err := s.Load()
	if err != nil || seq != 5 || string(got) != "state 5" {
		t.Fatalf("Load after prune = (%q, %d, %v)", got, seq, err)
	}
}

// TestStrayManifestNeverMasksNewest: the directory scan is the only
// recovery path, so a MANIFEST file — a stale pointer an older layout
// wrote, a foreign-magic "CM" frame naming an older seq, or garbage —
// never decides what Load returns; the newest valid data file does.
func TestStrayManifestNeverMasksNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"old", "newest"} {
		if _, err := s.Save([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	manifest := filepath.Join(dir, "MANIFEST")
	for _, stray := range [][]byte{
		withMagic(encodeFrame(1, []byte(dataName(1))), "CM"),
		[]byte("garbage"),
	} {
		if err := os.WriteFile(manifest, stray, 0o644); err != nil {
			t.Fatal(err)
		}
		got, seq, err := s.Load()
		if err != nil || seq != 2 || string(got) != "newest" {
			t.Fatalf("Load beside MANIFEST %q = (%q, %d, %v), want (newest, 2)", stray, got, seq, err)
		}
		// Nor does it move the sequence a reopened store continues.
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if re.LatestSeq() != 2 {
			t.Fatalf("reopened beside MANIFEST %q: LatestSeq = %d, want 2", stray, re.LatestSeq())
		}
	}
	if st := s.Stats(); st.SkippedCorrupt != 0 {
		t.Fatalf("a stray MANIFEST counted as %d corrupt checkpoints, want 0", st.SkippedCorrupt)
	}
}

// withMagic re-frames a valid frame under another magic with its CRC
// recomputed, so only the magic check can refuse it.
func withMagic(frame []byte, magic string) []byte {
	body := append([]byte(nil), frame[:len(frame)-4]...)
	copy(body, magic)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

func TestTornNewestFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("old valid")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("new torn")); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write that survived rename (lost page): truncate
	// the newest data file.
	newest := filepath.Join(dir, dataName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq, err := s.Load()
	if err != nil || seq != 1 || string(got) != "old valid" {
		t.Fatalf("Load past torn newest = (%q, %d, %v), want (old valid, 1)", got, seq, err)
	}
}

// failingWriter errors (simulated crash) once a shared byte budget is
// exhausted, committing the prefix that fit first (torn write). The
// budget is shared by every write of one Save.
type failingWriter struct {
	w      io.Writer
	budget *int
}

var errInjected = errors.New("injected write failure")

func (f *failingWriter) Write(p []byte) (int, error) {
	if *f.budget <= 0 {
		return 0, errInjected
	}
	if len(p) <= *f.budget {
		*f.budget -= len(p)
		return f.w.Write(p)
	}
	n, err := f.w.Write(p[:*f.budget])
	*f.budget = 0
	if err != nil {
		return n, err
	}
	return n, errInjected
}

// TestCrashAtEveryByteBoundary is the exhaustive fault-injection
// sweep: a first checkpoint is committed, then a second Save is
// crashed at every byte boundary of its data-file write. Recovery must
// always land on a fully-valid checkpoint — the old one when the new
// data file never landed — and, once the budget covers the whole
// frame, on the new one the Save reported.
func TestCrashAtEveryByteBoundary(t *testing.T) {
	probe, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := []byte("checkpoint ONE: the committed state")
	second := []byte("checkpoint TWO: the state being written when the crash hits")
	if _, err := probe.Save(first); err != nil {
		t.Fatal(err)
	}
	frameLen := len(encodeFrame(2, second))

	for limit := 0; limit <= frameLen; limit++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save(first); err != nil {
			t.Fatal(err)
		}
		budget := limit
		s.wrap = func(name string, w io.Writer) io.Writer {
			return &failingWriter{w: w, budget: &budget}
		}
		_, saveErr := s.Save(second)

		// Recovery through a fresh store (the restarted process).
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, seq, err := re.Load()
		if err != nil {
			t.Fatalf("limit %d: recovery failed: %v (save err: %v)", limit, err, saveErr)
		}
		switch {
		case seq == 1 && bytes.Equal(got, first):
		case seq == 2 && bytes.Equal(got, second):
			// The data file landed; the scan found it. Fine — it is
			// fully valid.
		default:
			t.Fatalf("limit %d: recovered (%q, %d) — neither committed checkpoint", limit, got, seq)
		}
		if saveErr == nil && seq != 2 {
			t.Fatalf("limit %d: Save returned nil but recovery landed on seq %d", limit, seq)
		}
	}
}

// TestTornRenameAtEveryByteBoundary covers the other failure shape: a
// write that silently commits only a prefix but still renames (a lost
// page after a crash between rename and data flush). The CRC must
// reject every truncated image and recovery must land on the previous
// checkpoint.
func TestTornRenameAtEveryByteBoundary(t *testing.T) {
	first := []byte("the previous fully-valid checkpoint")
	second := []byte("the torn one")
	frameLen := len(encodeFrame(2, second))
	for cut := 0; cut < frameLen; cut++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save(first); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save(second); err != nil {
			t.Fatal(err)
		}
		newest := filepath.Join(dir, dataName(2))
		data, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newest, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, seq, err := re.Load()
		if err != nil || seq != 1 || !bytes.Equal(got, first) {
			t.Fatalf("cut %d: recovered (%q, %d, %v), want checkpoint 1", cut, got, seq, err)
		}
	}
}

func TestFrameDecodeRejectsForeignMagic(t *testing.T) {
	frame := withMagic(encodeFrame(7, []byte("x")), "CM")
	if _, _, err := decodeFrame(frame); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("CRC-valid \"CM\" frame: err = %v, want a magic refusal", err)
	}
}
