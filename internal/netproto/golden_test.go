package netproto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/wire"
)

// TestGoldenSnapshotEncode pins the SNAPSHOT frame payload byte for
// byte: the header, the u32 count, the (u32 bit, bytes32 payload)
// elements. Re-pinned once when the protocol moved to revision 2 (the
// ACK carries the union's exponent), which changed only the envelope's
// revision byte; at revision 1 the same payload hashed to c8d9f976….
func TestGoldenSnapshotEncode(t *testing.T) {
	const golden = "bfc07f75ea297f940dfd558513d799b8eac704288281906c0d7bdca94b4d4545"
	enc := Encode(&Snapshot{Seq: 9, Gen: 31, Sketches: []wire.Blob{
		{Bit: 1, Payload: []byte("BD first blob")},
		{Bit: 16, Payload: bytes.Repeat([]byte{0xA5}, 300)},
	}})
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != golden || len(enc) != 353 {
		t.Fatalf("two-blob SNAPSHOT encodes to %d bytes hashing to %s, the pinned 353 bytes hash to %s", len(enc), got, golden)
	}
}
