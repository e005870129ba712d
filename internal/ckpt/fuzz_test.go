package ckpt

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint frame
// decoder. The decoder must never panic, must error on anything that is
// not a fully-valid frame, and on a valid frame must round-trip the
// payload it was built from.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(encodeFrame(1, []byte("engine state")))
	// A CRC-valid frame under the "CM" magic an older layout's MANIFEST
	// used: refused as foreign magic.
	f.Add(withMagic(encodeFrame(1, []byte(dataName(1))), "CM"))
	f.Add(encodeFrame(0, []byte{}))
	// Seeds the CRC check has to catch: flipped byte, truncation.
	flipped := encodeFrame(3, []byte("abcdef"))
	flipped[len(flipped)/2] ^= 0x80
	f.Add(flipped)
	valid := encodeFrame(9, []byte("payload"))
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte("CK"))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, seq, err := decodeFrame(data)
		if err != nil {
			return
		}
		// Accepted frames must re-encode to the identical bytes: decode
		// is the exact inverse of encode, so nothing partial or
		// ambiguous can be accepted.
		re := encodeFrame(seq, payload)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame is not canonical: decode(%x) -> (%d, %x) -> %x", data, seq, payload, re)
		}
	})
}
