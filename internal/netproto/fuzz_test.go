package netproto

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/wire"
)

// frame length-prefixes a payload for the seed corpus.
func frame(payload []byte) []byte {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzFrameDecode drives the streaming frame/message decoder with
// adversarial byte streams: truncations, oversize length prefixes,
// garbage kind bytes, valid frames followed by garbage. The contract is
// the library-wide unmarshal discipline — errors, never panics, and no
// allocation beyond the frame cap. The loop bound mirrors a connection
// handler's behavior: it stops at the first framing error (errors
// latch), so a hostile count field cannot spin the reader.
func FuzzFrameDecode(f *testing.F) {
	// One valid frame of every message kind.
	msgs := []Msg{
		&Hello{Role: RoleAgent, Agent: "seed", MinVersion: VersionMin, MaxVersion: VersionMax,
			Config: ConfigEcho{N: 1 << 16, Eps: 0.05, Alpha: 4, Seed: 7}, Structures: 1, Shards: 2},
		&Welcome{Version: VersionMax, LastSeq: 3},
		&Snapshot{Seq: 1, Gen: 2, Sketches: []wire.Blob{{Bit: 1, Payload: []byte("BDxx")}}},
		&Ack{Seq: 1, Exponent: 3},
		&Query{ID: 1, Op: OpEstimate, Keys: []uint64{1, 2, 3}},
		&Answer{ID: 1, Values: []float64{1.5}},
		&Error{Msg: "seed"},
	}
	var all []byte
	for _, m := range msgs {
		fr := frame(Encode(m))
		f.Add(fr)
		all = append(all, fr...)
	}
	// A whole conversation in one stream, plus trailing garbage.
	f.Add(append(append([]byte{}, all...), 0xde, 0xad, 0xbe, 0xef))
	// Truncations of a valid snapshot frame at every interesting cut.
	snap := frame(Encode(msgs[2]))
	for _, cut := range []int{1, 3, 4, 5, len(snap) / 2, len(snap) - 1} {
		f.Add(snap[:cut])
	}
	// Oversize length prefix with no body.
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 0xFFFFFFFF)
	f.Add(huge[:])
	// Length prefix claiming more than delivered.
	f.Add(append(frame([]byte("short"))[:4], 'N', 'P'))
	// Garbage kind byte inside a well-formed frame.
	f.Add(frame([]byte{'N', 'P', VersionMax, 0xEE, 1, 2, 3}))
	// An ACK whose exponent is past any sketch's (refused above
	// MaxExponent), and the last one accepted.
	for _, p := range []uint8{MaxExponent, MaxExponent + 1, 0xFF} {
		ack := wire.NewWriter(Magic, VersionMax)
		ack.U8(uint8(KindAck))
		ack.U64(1)
		ack.U8(p)
		f.Add(frame(ack.Bytes()))
	}
	// Snapshot with a hostile blob count and no blobs.
	hostile := wire.NewWriter(Magic, VersionMax)
	hostile.U8(uint8(KindSnapshot))
	hostile.U64(1)
	hostile.U64(1)
	hostile.U32(0xFFFFFFFF)
	f.Add(frame(hostile.Bytes()))
	// A header claiming the whole cap, ten body bytes, then EOF.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1<<20), "ten bytes!"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		mr := NewMessageReader(bytes.NewReader(data), 1<<20)
		for {
			m, err := mr.Next()
			if err != nil {
				// Errors latch: one more call must return an error too,
				// not resurrect the stream.
				if _, again := mr.Next(); again == nil {
					t.Fatal("reader returned nil error after latching")
				}
				return
			}
			// Any decoded message must re-encode without panicking.
			_ = Encode(m)
		}
	})
}
