package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter("XY", 3)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(12345)
	w.U64(1 << 50)
	w.I64(-99)
	w.F64(3.25)
	w.Bytes32([]byte("hello"))
	w.U64s([]uint64{1, 2, 3})
	w.FixedI64s([]int64{-1, 0, 1})
	w.F64s([]float64{0.5, -0.5})

	r, v, err := NewReader(w.Bytes(), "XY")
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("version = %d, want 3", v)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bool round trip")
	}
	if got := r.U32(); got != 12345 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<50 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -99 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := string(r.Bytes32()); got != "hello" {
		t.Errorf("Bytes32 = %q", got)
	}
	if got := r.U64s(); len(got) != 3 || got[2] != 3 {
		t.Errorf("U64s = %v", got)
	}
	fixed := make([]int64, 3)
	r.FixedI64s(fixed)
	if fixed[0] != -1 || fixed[2] != 1 {
		t.Errorf("FixedI64s = %v", fixed)
	}
	if got := r.F64s(); len(got) != 2 || got[1] != -0.5 {
		t.Errorf("F64s = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, _, err := NewReader([]byte{'A', 'B', 1}, "XY"); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, _, err := NewReader([]byte{'X'}, "XY"); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestTruncationLatches(t *testing.T) {
	w := NewWriter("XY", 1)
	w.U64(42)
	data := w.Bytes()[:5] // cut mid-field
	r, _, err := NewReader(data, "XY")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("truncated read did not latch an error")
	}
	// Subsequent reads stay zero and don't panic.
	if got := r.U64(); got != 0 {
		t.Errorf("post-error read = %d, want 0", got)
	}
	if r.Done() == nil {
		t.Fatal("Done succeeded after error")
	}
}

func TestOversizedLengthPrefixRejected(t *testing.T) {
	w := NewWriter("XY", 1)
	w.U32(1 << 30) // absurd element count with no bytes behind it
	r, _, err := NewReader(w.Bytes(), "XY")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U64s(); got != nil {
		t.Errorf("oversized prefix yielded %v", got)
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "length prefix") {
		t.Fatalf("want length-prefix error, got %v", r.Err())
	}
}

func TestTrailingBytes(t *testing.T) {
	w := NewWriter("XY", 1)
	w.U8(1)
	w.U8(2)
	r, _, err := NewReader(w.Bytes(), "XY")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.U8()
	if r.Done() == nil {
		t.Fatal("trailing byte not reported")
	}
}

func TestSeedDeterministicAndNonNegative(t *testing.T) {
	a := Seed([]byte("abc"))
	b := Seed([]byte("abc"))
	c := Seed([]byte("abd"))
	if a != b {
		t.Error("Seed not deterministic")
	}
	if a == c {
		t.Error("Seed ignores content")
	}
	if a < 0 || c < 0 {
		t.Error("Seed must be non-negative (rand.NewSource-safe)")
	}
}

// TestBlobsAliasInput: the payloads of a decoded blob list are views of
// the reader's input, not copies, in list order.
func TestBlobsAliasInput(t *testing.T) {
	w := NewWriter("XY", 1)
	w.Blobs([]Blob{{Bit: 1, Payload: []byte("alpha")}, {Bit: 2, Payload: nil}, {Bit: 4, Payload: []byte("gamma")}})
	data := w.Bytes()
	r, _, err := NewReader(data, "XY")
	if err != nil {
		t.Fatal(err)
	}
	blobs := r.Blobs()
	if err := r.Done(); err != nil || len(blobs) != 3 {
		t.Fatalf("Blobs: %d blobs, %v", len(blobs), err)
	}
	if string(blobs[0].Payload) != "alpha" || len(blobs[1].Payload) != 0 || string(blobs[2].Payload) != "gamma" {
		t.Fatalf("payloads = %q", blobs)
	}
	for i := range data {
		data[i] = 'z'
	}
	if string(blobs[0].Payload) != "zzzzz" || string(blobs[2].Payload) != "zzzzz" {
		t.Fatalf("payloads did not follow the input: %q — Blobs copied them", blobs)
	}
}

// TestSeedReadsEveryByte: the word-wise seed still depends on every
// byte of the payload, whatever is left behind the last 32-byte block —
// whole words, tail bytes, both or neither.
func TestSeedReadsEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 4096+39)
	rng.Read(buf)
	data := buf[:4099]
	base := Seed(data)
	if base < 0 || base != Seed(bytes.Clone(data)) {
		t.Fatalf("Seed = %d: want non-negative and equal for equal bytes", base)
	}
	for i := range data {
		data[i] ^= 1 << (i % 8)
		if s := Seed(data); s == base || s < 0 {
			t.Fatalf("flipping byte %d of %d: seed %d (base %d)", i, len(data), s, base)
		}
		data[i] ^= 1 << (i % 8)
	}
	seen := map[int64]int{}
	for tail := 0; tail <= 39; tail++ {
		p := buf[:4096+tail]
		s := Seed(p)
		if prev, dup := seen[s]; dup {
			t.Fatalf("tail lengths %d and %d share seed %d", prev, tail, s)
		}
		seen[s] = tail
		for i := 4096; i < len(p); i++ {
			p[i] ^= 0x80
			if Seed(p) == s {
				t.Fatalf("tail length %d: flipping tail byte %d left the seed alone", tail, i-4096)
			}
			p[i] ^= 0x80
		}
	}
}
