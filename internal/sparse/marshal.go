package sparse

import (
	"encoding/binary"
	"errors"

	"repro/internal/nt"
	"repro/internal/wire"
)

// Wire state of a Recovery sketch: maxCount, then the cells. The sketch
// is linear, so a client can ship its sketch of the old file state,
// have the server subtract it from a sketch of the new state (built
// from the same seed, so the hash functions are the server's own), and
// decode exactly the changed coordinates — the paper's remote
// differential compression scenario end to end.

var errBadRecoveryData = errors.New("sparse: malformed Recovery data")

// MarshalBinary encodes the sketch's state.
func (r *Recovery) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// EncodedLen is the length of the sketch's encoding, a closed form of
// its dimensions: what an enclosing structure grows its buffer by.
func (r *Recovery) EncodedLen() int { return 8 + 24*len(r.cells) }

// StateLen is the encoded length of a sketch of the given capacity.
func StateLen(capacity int) int { return 8 + 24*subtables*perTableFor(capacity) }

// AppendBinary appends the sketch's encoding to dst.
func (r *Recovery) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.State(wire.Grow(dst, r.EncodedLen()))
	w.I64(r.maxCount)
	b := w.Extend(24 * len(r.cells))
	for i, c := range r.cells {
		binary.LittleEndian.PutUint64(b[24*i:], uint64(c.count))
		binary.LittleEndian.PutUint64(b[24*i+8:], c.keySum)
		binary.LittleEndian.PutUint64(b[24*i+16:], c.fpSum)
	}
	return w.Bytes(), nil
}

// Fill restores the state into a sketch of the encoder's dimensions
// (wire.Filler).
func (r *Recovery) Fill(rd *wire.Reader) {
	r.maxCount = rd.I64()
	b := rd.Take(24 * len(r.cells))
	if b == nil {
		return
	}
	for i := range r.cells {
		c := &r.cells[i]
		c.count = int64(binary.LittleEndian.Uint64(b[24*i:]))
		c.keySum = binary.LittleEndian.Uint64(b[24*i+8:])
		c.fpSum = binary.LittleEndian.Uint64(b[24*i+16:])
		// Every encoder writes reduced sums; the field adds and the
		// decode's division test assume them.
		if c.keySum >= nt.MersennePrime61 || c.fpSum >= nt.MersennePrime61 {
			rd.Fail(errBadRecoveryData)
			return
		}
	}
}
