package netproto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/wire"
)

// TestGoldenSnapshotEncode pins the SNAPSHOT frame payload byte for
// byte against the digest recorded before the blob list moved into
// wire.Blob: same header, same u32 count, same (u32 bit, bytes32
// payload) elements.
func TestGoldenSnapshotEncode(t *testing.T) {
	const golden = "c8d9f9760aa124075b084e66167b4a6ee0d9cb466dc5104ee740c3bd6a86fa1f"
	enc := Encode(&Snapshot{Seq: 9, Gen: 31, Sketches: []wire.Blob{
		{Bit: 1, Payload: []byte("BD first blob")},
		{Bit: 16, Payload: bytes.Repeat([]byte{0xA5}, 300)},
	}})
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != golden || len(enc) != 353 {
		t.Fatalf("two-blob SNAPSHOT encodes to %d bytes hashing to %s, the parent's 353 bytes hash to %s", len(enc), got, golden)
	}
}
