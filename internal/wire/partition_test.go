package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func samplePartSnapshot() *PartSnapshot {
	return &PartSnapshot{
		Header: PartHeader{
			Shards:     2,
			N:          1 << 16,
			Eps:        0.05,
			Alpha:      8,
			Seed:       42,
			Structures: 0b10001,
			Generation: 77,
		},
		Shards: [][]Blob{
			{{Bit: 1, Payload: []byte("hh-shard0")}, {Bit: 16, Payload: []byte("sup-shard0")}},
			{{Bit: 1, Payload: []byte{}}, {Bit: 16, Payload: []byte("sup-shard1")}},
		},
	}
}

func TestPartSnapshotRoundTrip(t *testing.T) {
	p := samplePartSnapshot()
	enc, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got PartSnapshot
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	gh, ph := got.Header, p.Header
	if !reflect.DeepEqual(gh, ph) {
		t.Fatalf("header round trip: got %+v, want %+v", gh, ph)
	}
	if len(got.Shards) != len(p.Shards) {
		t.Fatalf("shard count: got %d, want %d", len(got.Shards), len(p.Shards))
	}
	for si := range p.Shards {
		if len(got.Shards[si]) != len(p.Shards[si]) {
			t.Fatalf("shard %d blob count: got %d, want %d", si, len(got.Shards[si]), len(p.Shards[si]))
		}
		for j, want := range p.Shards[si] {
			gb := got.Shards[si][j]
			if gb.Bit != want.Bit || !bytes.Equal(gb.Payload, want.Payload) {
				t.Fatalf("shard %d blob %d: got %+v, want %+v", si, j, gb, want)
			}
		}
	}
}

func TestPartSnapshotShardCountMismatch(t *testing.T) {
	p := samplePartSnapshot()
	p.Header.Shards = 3
	if _, err := p.MarshalBinary(); err == nil {
		t.Fatal("marshal with header/body shard mismatch did not error")
	}
}

func TestPartSnapshotMalformed(t *testing.T) {
	p := samplePartSnapshot()
	enc, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point must error, never panic or commit.
	for cut := 0; cut < len(enc); cut++ {
		var got PartSnapshot
		if err := got.UnmarshalBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if got.Shards != nil {
			t.Fatalf("truncation at %d committed partial state", cut)
		}
	}
	// Trailing garbage.
	var got PartSnapshot
	if err := got.UnmarshalBinary(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Zero shards.
	zero := &PartSnapshot{Header: PartHeader{Shards: 0}}
	encZero, err := zero.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.UnmarshalBinary(encZero); err == nil {
		t.Fatal("zero-shard snapshot accepted")
	}
	// Forged shard count larger than the input allows.
	forged := append([]byte{}, enc...)
	forged[3] = 0xff
	forged[4] = 0xff
	if err := got.UnmarshalBinary(forged); err == nil {
		t.Fatal("forged shard count accepted")
	}
}
