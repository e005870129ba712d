package hash

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/wire/wiretest"
)

func TestKWiseMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 4, 16} {
		h := NewKWise(rng, k)
		data, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored := &KWise{}
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < 1000; x++ {
			if restored.Field(x) != h.Field(x) {
				t.Fatalf("k=%d: Field(%d) differs after round trip", k, x)
			}
		}
		if restored.K() != k {
			t.Errorf("K = %d, want %d", restored.K(), k)
		}
	}
}

func TestKWiseUnmarshalRejects(t *testing.T) {
	h := &KWise{}
	bad := [][]byte{
		nil,
		{'H', 'K'},
		{'X', 'X', 1, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		append([]byte{'H', 'K', 1, 0}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), // out of field
	}
	for i, data := range bad {
		if err := h.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: accepted bad data", i)
		}
	}
}

func TestBucketsMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBuckets(rng, 4, 48)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Buckets{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for x := uint64(0); x < 500; x++ {
			if restored.Bucket(r, x) != b.Bucket(r, x) {
				t.Fatalf("Bucket(%d,%d) differs", r, x)
			}
			if restored.Sign(r, x) != b.Sign(r, x) {
				t.Fatalf("Sign(%d,%d) differs", r, x)
			}
		}
	}
}

func TestBucketsUnmarshalRejects(t *testing.T) {
	b := &Buckets{}
	good, _ := NewBuckets(rand.New(rand.NewSource(3)), 2, 8).MarshalBinary()
	// A row count the payload cannot back (FuzzUnmarshal found it asking
	// for a 28 GiB slice): refused before anything is allocated by it.
	rows := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(rows[3:], 0xE0000000)
	for i, data := range [][]byte{nil, good[:10], good[:len(good)-2], append(append([]byte{}, good...), 0), rows} {
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: accepted bad data", i)
		}
	}
}

// TestAppendBinaryMatchesMarshalBinary: both hash encodings obey the
// wire nesting rule and state their lengths exactly.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 4, 16} {
		wiretest.CheckAppend(t, NewKWise(rng, k))
	}
	wiretest.CheckAppend(t, NewBuckets(rng, 5, 96))
}
