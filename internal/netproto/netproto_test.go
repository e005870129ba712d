package netproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// roundTrip encodes m, frames it, reads it back through the streaming
// path, and returns the decoded message.
func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%s): %v", m.Kind(), err)
	}
	got, err := NewMessageReader(&buf, 0).Next()
	if err != nil {
		t.Fatalf("Next(%s): %v", m.Kind(), err)
	}
	return got
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []Msg{
		&Hello{
			Role: RoleAgent, Agent: "site-7",
			MinVersion: VersionMin, MaxVersion: VersionMax,
			Config:     ConfigEcho{N: 1 << 20, Eps: 0.05, Alpha: 4, Seed: -7},
			Structures: 0b101, Shards: 8,
		},
		&Hello{Role: RoleClient, MinVersion: 1, MaxVersion: 1},
		&Welcome{Version: 1, LastSeq: 42},
		&Snapshot{Seq: 9, Gen: 31, Sketches: []wire.Blob{
			{Bit: 1, Payload: []byte("BD-envelope-bytes")},
			{Bit: 4, Payload: []byte{}},
		}},
		&Snapshot{Seq: 1, Gen: 0},
		&Ack{Seq: 9},
		&Ack{Seq: 10, Exponent: MaxExponent},
		&Query{ID: 3, Op: OpEstimate, Keys: []uint64{1, 2, 1 << 40}},
		&Query{ID: 4, Op: OpHeavyHitters},
		&Answer{ID: 3, Values: []float64{1.5, -2, 0}},
		&Answer{ID: 5, Err: "not enabled", Keys: []uint64{7}},
		&Error{Msg: "config mismatch"},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// Empty slices may come back nil; normalize via DeepEqual on a
		// re-encode instead of field juggling.
		if !bytes.Equal(Encode(got), Encode(m)) {
			t.Errorf("%s: re-encode mismatch\n got %#v\nwant %#v", m.Kind(), got, m)
		}
		if got.Kind() != m.Kind() {
			t.Errorf("kind mismatch: got %s want %s", got.Kind(), m.Kind())
		}
	}
}

func TestSnapshotBlobFidelity(t *testing.T) {
	payload := bytes.Repeat([]byte{0xBD, 0x01, 0xFF}, 1000)
	m := &Snapshot{Seq: 2, Gen: 5, Sketches: []wire.Blob{{Bit: 2, Payload: payload}}}
	got := roundTrip(t, m).(*Snapshot)
	if got.Seq != 2 || got.Gen != 5 || len(got.Sketches) != 1 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Sketches[0].Bit != 2 || !bytes.Equal(got.Sketches[0].Payload, payload) {
		t.Fatal("blob bytes not preserved")
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := Encode(&Ack{Seq: 1, Exponent: 2})
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("ZZ"), valid[2:]...),
		"foreign version":  append([]byte{'N', 'P', 99}, valid[3:]...),
		"version 1":        append([]byte{'N', 'P', 1}, valid[3:]...),
		"version 1 ack":    append([]byte{'N', 'P', 1}, valid[3:len(valid)-1]...),
		"unknown kind":     {'N', 'P', VersionMax, 200},
		"truncated ack":    valid[:len(valid)-2],
		"ack without P":    valid[:len(valid)-1],
		"trailing bytes":   append(append([]byte{}, valid...), 0xFF),
		"kind only, empty": {'N', 'P', VersionMax},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

func TestDecodeRejectsSemanticViolations(t *testing.T) {
	// Unknown role.
	h := Encode(&Hello{Role: Role(9), MinVersion: 1, MaxVersion: 1})
	if _, err := Decode(h); err == nil {
		t.Error("unknown role accepted")
	}
	// Inverted version range.
	h = Encode(&Hello{Role: RoleAgent, MinVersion: 3, MaxVersion: 1})
	if _, err := Decode(h); err == nil {
		t.Error("inverted version range accepted")
	}
	// Unknown query op.
	q := Encode(&Query{ID: 1, Op: QueryOp(99)})
	if _, err := Decode(q); err == nil {
		t.Error("unknown op accepted")
	}
	// Snapshot blob with a non-power-of-two structure bit.
	s := Encode(&Snapshot{Seq: 1, Sketches: []wire.Blob{{Bit: 3, Payload: nil}}})
	if _, err := Decode(s); err == nil {
		t.Error("multi-bit structure id accepted")
	}
	// An ACK exponent past what a sketch's encoding carries.
	a := Encode(&Ack{Seq: 1, Exponent: MaxExponent + 1})
	if _, err := Decode(a); err == nil {
		t.Error("ACK exponent above MaxExponent accepted")
	}
	// Oversize agent id.
	h = Encode(&Hello{Role: RoleAgent, Agent: string(bytes.Repeat([]byte{'a'}, 4096)), MinVersion: 1, MaxVersion: 1})
	if _, err := Decode(h); err == nil {
		t.Error("oversize agent id accepted")
	}
}

func TestNegotiate(t *testing.T) {
	if v, err := Negotiate(&Hello{MinVersion: VersionMin, MaxVersion: VersionMax}); err != nil || v != VersionMax {
		t.Fatalf("same range: v=%d err=%v", v, err)
	}
	// A peer that speaks only revision 1 (an ACK without the union's
	// exponent) shares no version with this build.
	if _, err := Negotiate(&Hello{MinVersion: 1, MaxVersion: 1}); err == nil {
		t.Fatal("revision-1-only peer negotiated")
	}
	// Peer speaks a superset including the future: pick our max.
	if v, err := Negotiate(&Hello{MinVersion: 1, MaxVersion: 9}); err != nil || v != VersionMax {
		t.Fatalf("superset range: v=%d err=%v", v, err)
	}
	// Disjoint ranges refuse.
	if _, err := Negotiate(&Hello{MinVersion: 5, MaxVersion: 9}); err == nil {
		t.Fatal("disjoint range negotiated")
	}
}

func TestMessageReaderStream(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMessageWriter(&buf)
	for i := uint64(0); i < 5; i++ {
		if err := mw.Write(&Ack{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	mr := NewMessageReader(&buf, 0)
	for i := uint64(0); i < 5; i++ {
		m, err := mr.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if ack, ok := m.(*Ack); !ok || ack.Seq != i {
			t.Fatalf("message %d: got %#v", i, m)
		}
	}
	if _, err := mr.Next(); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

// TestMessageReaderCapsFrames pins the anti-OOM stream contract: a
// frame above the cap is refused and the reader latches.
func TestMessageReaderCapsFrames(t *testing.T) {
	var buf bytes.Buffer
	big := &Snapshot{Seq: 1, Sketches: []wire.Blob{{Bit: 1, Payload: bytes.Repeat([]byte{1}, 4096)}}}
	if err := WriteMessage(&buf, big); err != nil {
		t.Fatal(err)
	}
	mr := NewMessageReader(&buf, 128)
	if _, err := mr.Next(); err == nil {
		t.Fatal("over-cap frame accepted")
	}
	if _, err := mr.Next(); err == nil {
		t.Fatal("reader did not latch")
	}
}

func TestKindAndOpStrings(t *testing.T) {
	// Diagnostics should never render as bare integers for known values.
	for _, k := range []MsgKind{KindHello, KindWelcome, KindSnapshot, KindAck, KindQuery, KindAnswer, KindError} {
		if s := k.String(); len(s) == 0 || s[0] == 'M' {
			t.Errorf("MsgKind(%d).String() = %q", uint8(k), s)
		}
	}
	for _, op := range []QueryOp{OpEstimate, OpHeavyHitters, OpL1, OpSupport} {
		if s := op.String(); len(s) == 0 || s[0] == 'Q' {
			t.Errorf("QueryOp(%d).String() = %q", uint8(op), s)
		}
	}
	if reflect.TypeOf(Role(0)).Kind() != reflect.Uint8 {
		t.Error("Role must stay one byte (wire format)")
	}
}

// TestMessageWriterFrameEqualsEncode: what a MessageWriter puts on a
// connection is the 4-byte length followed by Encode's bytes, in ONE
// Write per message, for every message kind — and still after the
// writer's buffer has held a larger frame.
func TestMessageWriterFrameEqualsEncode(t *testing.T) {
	msgs := []Msg{
		&Snapshot{Seq: 9, Gen: 31, Sketches: []wire.Blob{
			{Bit: 1, Payload: bytes.Repeat([]byte{0xBD}, 70000)},
			{Bit: 4, Payload: []byte("second")},
		}},
		&Hello{Role: RoleAgent, Agent: "site-7", MinVersion: VersionMin, MaxVersion: VersionMax,
			Config: ConfigEcho{N: 1 << 20, Eps: 0.05, Alpha: 4, Seed: -7}, Structures: 0b101, Shards: 8},
		&Welcome{Version: 1, LastSeq: 42},
		&Snapshot{Seq: 1, Gen: 0},
		&Ack{Seq: 9},
		&Query{ID: 3, Op: OpEstimate, Keys: []uint64{1, 2, 1 << 40}},
		&Answer{ID: 3, Err: "partial", Values: []float64{1.5, -2, 0}, Keys: []uint64{7}},
		&Error{Msg: "config mismatch"},
	}
	client, server := net.Pipe()
	defer client.Close()
	sent := make(chan error, 1)
	go func() {
		defer server.Close()
		mw := NewMessageWriter(server)
		for _, m := range msgs {
			if err := mw.Write(m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for _, m := range msgs {
		want := Encode(m)
		want = append(binary.LittleEndian.AppendUint32(nil, uint32(len(want))), want...)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatalf("%s: reading the frame: %v", m.Kind(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bytes on the connection differ from length ‖ Encode(m)", m.Kind())
		}
	}
	if n, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("after the last frame: read %d bytes, %v; want EOF", n, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}

	var writes []int
	mw := NewMessageWriter(writerFunc(func(p []byte) (int, error) {
		writes = append(writes, len(p))
		return len(p), nil
	}))
	for _, m := range msgs[:3] {
		if err := mw.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(writes) != 3 {
		t.Errorf("3 messages took Write calls of %v bytes, want one call each", writes)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestSnapshotPayloadsAliasFrame pins what MessageReader.Next documents:
// a SNAPSHOT's blob payloads are views of the reader's one frame buffer
// — no copy per blob — so they hold the NEXT frame's bytes once it has
// been read.
func TestSnapshotPayloadsAliasFrame(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMessageWriter(&buf)
	for _, fill := range []byte{'a', 'b'} {
		if err := mw.Write(&Snapshot{Seq: 1, Sketches: []wire.Blob{{Bit: 1, Payload: bytes.Repeat([]byte{fill}, 512)}}}); err != nil {
			t.Fatal(err)
		}
	}
	mr := NewMessageReader(&buf, 0)
	first, err := mr.Next()
	if err != nil {
		t.Fatal(err)
	}
	held := first.(*Snapshot).Sketches[0].Payload
	if !bytes.Equal(held, bytes.Repeat([]byte{'a'}, 512)) {
		t.Fatalf("first payload = %q", held[:8])
	}
	if _, err := mr.Next(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, bytes.Repeat([]byte{'b'}, 512)) {
		t.Fatalf("the first frame's payload reads %q after the second frame: it was copied out of the frame buffer", held[:8])
	}
}
