package sampler

import (
	"errors"
	"math"

	"repro/internal/cauchy"
	"repro/internal/csss"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/topk"
	"repro/internal/wire"
)

// Wire layout of the Figure 3 sampler: the filled Params (every field —
// merge compatibility compares them), then each instance's scaling
// hash, tail-estimator pair, candidate tracker and norm counters. The
// derived eps' and log n rescale from Params on restore.
const (
	samplerMagic  = "SP"
	instanceMagic = "SI"
	formatV1      = 1
)

// MarshalBinary encodes all parallel instances.
func (s *Sampler) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends the sampler's encoding to dst, growing it once
// by the length its instances will take.
func (s *Sampler) AppendBinary(dst []byte) ([]byte, error) {
	size := 3 + 4
	for _, in := range s.instances {
		size += 4 + in.EncodedLen()
	}
	w := wire.Append(dst, samplerMagic, formatV1)
	w.Grow(size)
	w.U32(uint32(len(s.instances)))
	for _, in := range s.instances {
		if err := w.Marshal(in); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a sampler serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (s *Sampler) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, samplerMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("sampler: unsupported Sampler format version")
	}
	n := int(rd.U32())
	if rd.Err() != nil {
		return rd.Err()
	}
	if n < 1 || n > rd.Remaining() {
		return errors.New("sampler: bad instance count")
	}
	instances := make([]*instance, n)
	for i := range instances {
		instances[i] = &instance{}
		rd.Unmarshal(instances[i])
	}
	if err := rd.Done(); err != nil {
		return err
	}
	s.instances = instances
	return nil
}

// MarshalBinary encodes one sampling instance.
func (in *instance) MarshalBinary() ([]byte, error) { return in.AppendBinary(nil) }

// EncodedLen is the length of one instance's encoding.
func (in *instance) EncodedLen() int {
	n := 3 + 89 + 4 + in.tHash.EncodedLen() + 4 + in.te.EncodedLen() + 4 + in.trk.EncodedLen()
	if in.p.General {
		n += 4 + in.rSketch.EncodedLen() + 4 + in.qSketch.EncodedLen()
	}
	return n
}

// AppendBinary appends one sampling instance's encoding to dst.
func (in *instance) AppendBinary(dst []byte) ([]byte, error) {
	w := wire.Append(dst, instanceMagic, formatV1)
	w.U64(in.p.N)
	w.F64(in.p.Eps)
	w.U32(uint32(in.p.Rows))
	w.U32(uint32(in.p.K))
	w.I64(in.p.S)
	w.F64(in.p.Alpha)
	w.U32(uint32(in.p.TWise))
	w.U32(uint32(in.p.FPBits))
	w.F64(in.p.WeightCap)
	w.Bool(in.p.General)
	w.I64(in.r)
	w.F64(in.q)
	w.I64(in.maxR)
	w.F64(in.qFP)
	if err := w.Marshal(in.tHash); err != nil {
		return nil, err
	}
	if err := w.Marshal(in.te); err != nil {
		return nil, err
	}
	if err := w.Marshal(in.trk); err != nil {
		return nil, err
	}
	if in.p.General {
		if err := w.Marshal(in.rSketch); err != nil {
			return nil, err
		}
		if err := w.Marshal(in.qSketch); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores one instance serialized by MarshalBinary. On
// failure the receiver is left unchanged.
func (in *instance) UnmarshalBinary(data []byte) error {
	rd, v, err := wire.NewReader(data, instanceMagic)
	if err != nil {
		return err
	}
	if v != formatV1 {
		return errors.New("sampler: unsupported instance format version")
	}
	p := Params{
		N:         rd.U64(),
		Eps:       rd.F64(),
		Rows:      int(rd.U32()),
		K:         int(rd.U32()),
		S:         rd.I64(),
		Alpha:     rd.F64(),
		TWise:     int(rd.U32()),
		FPBits:    uint(rd.U32()),
		WeightCap: rd.F64(),
		General:   rd.Bool(),
	}
	r := rd.I64()
	q := rd.F64()
	maxR := rd.I64()
	qFP := rd.F64()
	if rd.Err() != nil {
		return rd.Err()
	}
	if !(p.Eps > 0 && p.Eps < 1) || p.Rows < 1 || p.K < 1 || p.S < 1 ||
		p.TWise < 1 || p.WeightCap <= 0 || p.Alpha < 1 {
		return errors.New("sampler: bad instance parameters")
	}
	tHash := &hash.KWise{}
	rd.Unmarshal(tHash)
	te := &csss.TailEstimator{}
	rd.Unmarshal(te)
	trk := topk.Expect(trackerCap(p.K))
	rd.Unmarshal(trk)
	var rSketch, qSketch *cauchy.Sketch
	if p.General {
		rSketch, qSketch = &cauchy.Sketch{}, &cauchy.Sketch{}
		rd.Unmarshal(rSketch)
		rd.Unmarshal(qSketch)
	}
	if err := rd.Done(); err != nil {
		return err
	}
	logN := math.Max(4, float64(nt.Log2Ceil(p.N)))
	in.p = p
	in.tHash = tHash
	in.te = te
	in.trk = trk
	in.r, in.q, in.maxR = r, q, maxR
	in.epsPrim = p.Eps * p.Eps * p.Eps / (logN * logN)
	in.logN = logN
	in.rSketch, in.qSketch = rSketch, qSketch
	in.qFP = qFP
	return nil
}
