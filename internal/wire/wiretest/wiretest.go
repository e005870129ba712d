// Package wiretest holds the one check every package with an
// AppendBinary runs on it — the nesting rule of package wire, from the
// child's side — and the helpers the structure packages' tests share.
package wiretest

import (
	"bytes"
	"encoding"
	"iter"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/stream"
	"repro/internal/wire"
)

// MustMarshal returns m's encoding, failing the test on an error.
func MustMarshal(t testing.TB, m encoding.BinaryMarshaler) []byte {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Restore fills fresh — a structure built as the encoder's was, from
// the same parameters and seed — from data, failing the test on an
// error, and returns it.
func Restore[T wire.Filler](t testing.TB, fresh T, data []byte) T {
	t.Helper()
	if err := wire.Fill(data, fresh); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// The allocation bound CheckBoundedDecode holds a decode to: at most
// decodePerByte bytes per input byte plus decodeFixed.
const (
	decodePerByte = 64
	decodeFixed   = 1 << 20
)

// CheckBoundedDecode asserts that decode allocates at most
// decodePerByte·len(blob) + decodeFixed bytes on blob, whether it
// succeeds or not: a short blob cannot name a shape whose state the
// decoder then allocates. The constructors of some kinds build what a
// window holds at estimate zero (up to a few dozen levels) where a
// state need only carry the two that never leave, so the per-byte
// factor is a few dozen, never a function of the Config.
func CheckBoundedDecode(t testing.TB, blob []byte, decode func([]byte) error) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode(blob)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(decodePerByte*len(blob)+decodeFixed); got > limit {
		t.Errorf("decoding a %d-byte blob allocated %d bytes (limit %d; err %v)", len(blob), got, limit, err)
	}
}

// LiveSet lists the levels a window's Each visits, in its order.
func LiveSet[T any](each iter.Seq2[int, T]) []int {
	var js []int
	for j := range each {
		js = append(js, j)
	}
	return js
}

// Readers starts one goroutine per read, each calling it over and over
// until stop is called, and stop returns once they have all returned. A
// read that fails reports its error and ends its goroutine.
func Readers(t testing.TB, reads ...func() error) (stop func()) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// CheckLazySeeding asserts that a copy made by mk holds no generator
// until it draws — seed builds one: math/rand's two allocations, which
// mk did not pay — and that its stream is the one eager installs at once
// from the copy's seed word: after work, which draws, both marshal alike.
func CheckLazySeeding[T encoding.BinaryMarshaler](t *testing.T, name string, mk func() T, seed, eager, work func(T)) {
	t.Helper()
	lazy := testing.AllocsPerRun(5, func() { mk() })
	seeded := testing.AllocsPerRun(5, func() { seed(mk()) })
	if seeded-lazy != 2 {
		t.Errorf("%s: seeding a copy's generator allocated %v times, want 2 (the copy must not have built it)", name, seeded-lazy)
	}
	a, b := mk(), mk()
	eager(b)
	work(a)
	work(b)
	if !bytes.Equal(MustMarshal(t, a), MustMarshal(t, b)) {
		t.Errorf("%s: a copy seeded on its first draw and one seeded at once marshal differently after the same work", name)
	}
}

// SignedUnits is a strict-turnstile-shaped update sequence over 97 keys:
// every fifth update a deletion, magnitudes 1 (unit) or, with multi,
// 1..7.
func SignedUnits(n int, multi bool) []stream.Update {
	us := make([]stream.Update, n)
	for i := range us {
		d := int64(1)
		if multi {
			d += int64(i % 7)
		}
		if i%5 == 4 {
			d = -d
		}
		us[i] = stream.Update{Index: uint64(i % 97), Delta: d}
	}
	return us
}

// Codec is a structure under the nesting rule.
type Codec interface {
	encoding.BinaryMarshaler
	encoding.BinaryAppender
}

// CheckAppend asserts AppendBinary(prefix) == prefix ‖ MarshalBinary()
// for an empty prefix, a short one with room behind it and one whose
// capacity is exhausted, that the bytes of the caller's prefix were
// left alone, and — for a structure that states its encoded length —
// that the statement is exact.
func CheckAppend(t *testing.T, m Codec) {
	t.Helper()
	want, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("%T.MarshalBinary: %v", m, err)
	}
	if s, ok := m.(interface{ EncodedLen() int }); ok && s.EncodedLen() != len(want) {
		t.Errorf("%T.EncodedLen() = %d, encoding is %d bytes", m, s.EncodedLen(), len(want))
	}
	roomy := append(make([]byte, 0, 64), 0xA5, 0x5A, 0xC3)
	prefixes := map[string][]byte{
		"empty":         nil,
		"3-byte":        roomy,
		"cap-exhausted": bytes.Repeat([]byte{0x7E}, 16),
	}
	for name, prefix := range prefixes {
		kept := bytes.Clone(prefix)
		got, err := m.AppendBinary(prefix)
		if err != nil {
			t.Fatalf("%T.AppendBinary(%s prefix): %v", m, name, err)
		}
		if !bytes.Equal(prefix, kept) {
			t.Errorf("%T.AppendBinary wrote below len(dst) (%s prefix)", m, name)
		}
		if !bytes.Equal(got, append(kept, want...)) {
			t.Errorf("%T.AppendBinary(%s prefix) != prefix ‖ MarshalBinary()", m, name)
		}
	}
}

// CheckGrowsOnce asserts that a structure which grows its buffer by its
// encoded length up front pays for one buffer: MarshalBinary allocates
// little more than the bytes it returns (the slack covers allocator
// size classes and the small Writer headers of the nesting), where a
// size that fell short would cost the encoding again. TotalAlloc is
// process-wide, so a goroutine of another test can land in the window:
// the check takes the least of a few marshals, which such noise only
// ever raises.
func CheckGrowsOnce(t *testing.T, m Codec) {
	t.Helper()
	// The collector is off for the measured marshals: a cycle inside
	// the window can empty a sync.Pool, and its refill would be charged
	// to the marshal.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const marshals = 5
	least, n := uint64(math.MaxUint64), 0
	for range marshals {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc, err := m.MarshalBinary()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%T.MarshalBinary: %v", m, err)
		}
		least, n = min(least, after.TotalAlloc-before.TotalAlloc), len(enc)
	}
	if limit := uint64(n)*115/100 + 4096; least > limit {
		t.Errorf("%T.MarshalBinary allocated at least %d bytes for a %d-byte encoding in %d marshals (limit %d)", m, least, n, marshals, limit)
	}
}
