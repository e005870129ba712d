package wire

import "fmt"

// Partitioned engine snapshot envelope. Where the public "BD" envelope
// carries ONE merged structure, this frame carries an engine's whole
// sharded state with the partition preserved: a header naming the
// topology the payloads were built under (shard count, the Config echo
// — whose Seed fixes the fast-range partition hash — the structure set,
// and the state generation), then per-shard blob lists —
// one "BD" envelope per enabled structure per shard, exactly as each
// shard's live goroutine marshaled it. A restoring engine whose
// topology matches installs the payloads shard-for-shard and keeps
// routed (snapshot-free) reads; one at any other topology refuses the
// snapshot, since sharded state cannot be re-keyed. The frame is
// structural only — the engine package owns the
// semantic checks (bit validity, Config equality, type dispatch).
const (
	partMagic = "BP"
	// PartVersion is the current partitioned-snapshot format version;
	// version 2 dropped the partition hash echo.
	PartVersion = 2
)

// PartHeader names the topology a partitioned snapshot was built
// under. Shards and the Config echo (its Seed derives the partition
// hash) decide whether a restore can install shard-for-shard; the
// Config echo gates mergeability either way.
type PartHeader struct {
	// Shards is the producing engine's shard count; the body carries
	// exactly this many blob lists.
	Shards uint32
	// Config echo (bounded.Config fields, flattened to keep this
	// package dependency-free).
	N          uint64
	Eps, Alpha float64
	Seed       int64
	// Structures is the engine Structures bitmask every shard's blob
	// list covers.
	Structures uint32
	// Generation is the producing engine's state generation at
	// snapshot time.
	Generation uint64
}

// PartSnapshot is a decoded partitioned snapshot: the header plus one
// blob list per shard (len(Shards) == int(Header.Shards)).
type PartSnapshot struct {
	Header PartHeader
	Shards [][]Blob
}

// MarshalBinary frames the snapshot.
func (p *PartSnapshot) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// AppendBinary appends the framed snapshot to dst.
func (p *PartSnapshot) AppendBinary(dst []byte) ([]byte, error) {
	if len(p.Shards) != int(p.Header.Shards) {
		return nil, fmt.Errorf("wire: partitioned snapshot header declares %d shards, body has %d",
			p.Header.Shards, len(p.Shards))
	}
	size := 3 + 48
	for _, blobs := range p.Shards {
		size += blobsLen(blobs)
	}
	w := Append(dst, partMagic, PartVersion)
	w.Grow(size)
	w.U32(p.Header.Shards)
	w.U64(p.Header.N)
	w.F64(p.Header.Eps)
	w.F64(p.Header.Alpha)
	w.I64(p.Header.Seed)
	w.U32(p.Header.Structures)
	w.U64(p.Header.Generation)
	for _, blobs := range p.Shards {
		w.Blobs(blobs)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary parses a frame produced by MarshalBinary. Like every
// reader in this package it is allocation-bounded by the input size (a
// corrupt count can never drive an oversized allocation) and commits
// nothing on failure. The blob payloads alias data.
func (p *PartSnapshot) UnmarshalBinary(data []byte) error {
	r, v, err := NewReader(data, partMagic)
	if err != nil {
		return err
	}
	if v != PartVersion {
		return fmt.Errorf("wire: unsupported partitioned snapshot version %d", v)
	}
	var hdr PartHeader
	hdr.Shards = r.U32()
	hdr.N = r.U64()
	hdr.Eps = r.F64()
	hdr.Alpha = r.F64()
	hdr.Seed = r.I64()
	hdr.Structures = r.U32()
	hdr.Generation = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if hdr.Shards == 0 {
		return fmt.Errorf("wire: partitioned snapshot with zero shards")
	}
	// Each shard costs at least its 4-byte blob count: a forged shard
	// count cannot allocate past the input size.
	if int64(hdr.Shards)*4 > int64(r.Remaining()) {
		return fmt.Errorf("wire: shard count %d exceeds remaining %d bytes", hdr.Shards, r.Remaining())
	}
	shards := make([][]Blob, hdr.Shards)
	for si := range shards {
		shards[si] = r.Blobs()
		if r.Err() != nil {
			return r.Err()
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	p.Header = hdr
	p.Shards = shards
	return nil
}
