package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	bounded "repro"
)

const (
	// universeN is the key universe of every workload.
	universeN = 1 << 20
	// universeSeed pins WHICH keys are hot. The workload seed decides
	// the order of updates, the tail keys drawn and every deletion, but
	// not the identity of the hot keys: the engine's partition hash is a
	// function of the key, so a seed-dependent permutation would move the
	// shard split (and with it the throughput of the busier shard) by
	// more than any bound this benchmark gates.
	universeSeed = 3
	// maxAlphaL1 is the alpha-property every segment must satisfy; the
	// generator's true alpha is 3 (one update in three is a deletion).
	maxAlphaL1 = 4.0
)

var universePerm = sync.OnceValue(func() []uint32 {
	p := make([]uint32, universeN)
	for i := range p {
		p[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(universeSeed))
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
})

// segment is one generated run of unit updates plus its exact
// frequency vector. A workload's stream is the segment replayed: after
// k replays the true vector is k times freq, so every prefix stays
// strict and keeps the segment's alpha.
type segment struct {
	updates []bounded.Update
	freq    []int64 // dense over the universe
	l1      int64
}

// genSegment draws length unit updates from seed: an insert takes a
// key of rank zipf(s) in the pinned universe permutation; with
// probability 1/3 the update instead deletes one uniformly chosen live
// earlier insert (strict turnstile, alpha_L1 = 3 in expectation).
func genSegment(seed int64, length int, s float64) *segment {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, universeN-1)
	perm := universePerm()
	seg := &segment{
		updates: make([]bounded.Update, length),
		freq:    make([]int64, universeN),
	}
	live := make([]uint32, 0, length)
	for t := range seg.updates {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			seg.updates[t] = bounded.Update{Index: uint64(k), Delta: -1}
			seg.freq[k]--
			continue
		}
		k := perm[zipf.Uint64()]
		live = append(live, k)
		seg.updates[t] = bounded.Update{Index: uint64(k), Delta: 1}
		seg.freq[k]++
	}
	seg.l1 = int64(len(live))
	return seg
}

// validate replays the segment through the library's exact Tracker and
// fails unless it is a strict turnstile stream with the alpha-property
// the workloads assume, and unless the tracker agrees with the
// generator's own frequency vector.
func (s *segment) validate() error {
	tr := bounded.NewTracker(universeN)
	for _, u := range s.updates {
		tr.Update(u)
	}
	if !tr.Strict {
		return fmt.Errorf("segment is not strict turnstile")
	}
	if a := tr.AlphaL1(); a > maxAlphaL1 {
		return fmt.Errorf("segment alpha_L1 = %.3f exceeds %.1f", a, maxAlphaL1)
	}
	if got := tr.F.L1(); got != s.l1 {
		return fmt.Errorf("tracker L1 %d != generator L1 %d", got, s.l1)
	}
	for k, v := range tr.F {
		if s.freq[k] != v {
			return fmt.Errorf("tracker f[%d] = %d, generator has %d", k, v, s.freq[k])
		}
	}
	return nil
}

// split partitions the segment into parts substreams by key mod parts
// (the fleet's tested regime: every deletion reaches the site that saw
// the insertion), each truncated to a multiple of chunk updates so a
// round never straddles a replay. A prefix of a strict stream is
// strict, so truncation keeps every substream valid.
func (s *segment) split(parts, chunk int) []*segment {
	out := make([]*segment, parts)
	for p := range out {
		out[p] = &segment{freq: make([]int64, universeN)}
	}
	for _, u := range s.updates {
		p := out[u.Index%uint64(parts)]
		p.updates = append(p.updates, u)
	}
	for _, p := range out {
		p.updates = p.updates[:len(p.updates)/chunk*chunk]
		for _, u := range p.updates {
			p.freq[u.Index] += u.Delta
		}
		for _, v := range p.freq {
			p.l1 += v
		}
	}
	return out
}

// stream is a cursor over a segment replayed without end.
type stream struct {
	seg     *segment
	pos     int
	replays int64
}

// next returns the next n updates. n must divide the segment length,
// so a batch never straddles a replay.
func (s *stream) next(n int) []bounded.Update {
	if s.pos == len(s.seg.updates) {
		s.pos = 0
		s.replays++
	}
	b := s.seg.updates[s.pos : s.pos+n]
	s.pos += n
	return b
}

// sent is the number of updates handed out so far.
func (s *stream) sent() int64 {
	return s.replays*int64(len(s.seg.updates)) + int64(s.pos)
}

// addTo adds the exact frequency vector of everything handed out so
// far to f.
func (s *stream) addTo(f []int64) {
	if s.replays > 0 {
		for k, v := range s.seg.freq {
			f[k] += s.replays * v
		}
	}
	for _, u := range s.seg.updates[:s.pos] {
		f[u.Index] += u.Delta
	}
}

// reference is the exact answer key at a quiesced check.
type reference struct {
	f  []int64
	l1 int64
	l0 int64
}

func newReference(streams ...*stream) *reference {
	r := &reference{f: make([]int64, universeN)}
	for _, s := range streams {
		s.addTo(r.f)
	}
	for _, v := range r.f {
		if v != 0 {
			r.l0++
			r.l1 += v // strict: every entry is nonnegative
		}
	}
	return r
}

// heavy returns the keys with f_i >= phi * ||f||_1, sorted.
func (r *reference) heavy(phi float64) []uint64 {
	var out []uint64
	thr := phi * float64(r.l1)
	for k, v := range r.f {
		if v > 0 && float64(v) >= thr {
			out = append(out, uint64(k))
		}
	}
	return out
}

// probeKeys returns the fixed point-query key set of a run: the count/2
// most frequent keys of the segment followed by count/2 keys drawn
// uniformly from the universe by seed.
func probeKeys(seg *segment, seed int64, count int) []uint64 {
	type kv struct {
		k uint64
		v int64
	}
	var top []kv
	for k, v := range seg.freq {
		if v > 0 {
			top = append(top, kv{uint64(k), v})
		}
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].v != top[j].v {
			return top[i].v > top[j].v
		}
		return top[i].k < top[j].k
	})
	keys := make([]uint64, 0, count)
	for i := 0; i < count/2 && i < len(top); i++ {
		keys = append(keys, top[i].k)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265))
	for len(keys) < count {
		keys = append(keys, uint64(rng.Intn(universeN)))
	}
	return keys
}
