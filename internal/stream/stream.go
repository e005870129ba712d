// Package stream defines the data-stream model of Jayaram & Woodruff
// (PODS 2018): a frequency vector f over a universe [n] receiving signed
// updates, its decomposition f = I - D into insertion and deletion
// vectors, and the L_p alpha-property (Definition 1) and strong
// alpha-property (Definition 2) that parameterize how far a stream sits
// between insertion-only (alpha = 1) and unrestricted turnstile
// (alpha = poly(n)).
//
// The package provides exact reference computations (norms, heavy hitters,
// tail errors, alpha measurements) that the sketching packages are tested
// and benchmarked against.
package stream

import (
	"fmt"
	"math"
	"sort"
)

// Update is one stream element (i_t, Delta_t): add Delta to coordinate
// Index of the frequency vector.
type Update struct {
	Index uint64
	Delta int64
}

// Stream is an ordered sequence of updates over a universe of size N.
type Stream struct {
	N       uint64 // universe size; indices are in [0, N)
	Updates []Update
}

// Len returns the number of updates (stream length in update count; the
// unit-update length m is UnitLength).
func (s *Stream) Len() int { return len(s.Updates) }

// UnitLength returns m = sum |Delta_t|, the stream length after expanding
// every update into unit increments, the measure the paper's L1
// alpha-property uses (m <= alpha * ||f||_1).
func (s *Stream) UnitLength() int64 {
	var m int64
	for _, u := range s.Updates {
		m += Abs64(u.Delta)
	}
	return m
}

// Vector is an exact sparse frequency vector used as ground truth.
type Vector map[uint64]int64

// Apply adds the update to the vector, deleting exactly-zero entries so
// that L0 matches the live support size.
func (v Vector) Apply(u Update) {
	nv := v[u.Index] + u.Delta
	if nv == 0 {
		delete(v, u.Index)
	} else {
		v[u.Index] = nv
	}
}

// Materialize plays all updates into a fresh vector.
func (s *Stream) Materialize() Vector {
	v := make(Vector)
	for _, u := range s.Updates {
		v.Apply(u)
	}
	return v
}

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for i, x := range v {
		c[i] = x
	}
	return c
}

// L0 returns the support size |{i : f_i != 0}|.
func (v Vector) L0() int64 { return int64(len(v)) }

// L1 returns sum |f_i|.
func (v Vector) L1() int64 {
	var t int64
	for _, x := range v {
		t += Abs64(x)
	}
	return t
}

// L2 returns (sum f_i^2)^(1/2).
func (v Vector) L2() float64 { return math.Sqrt(v.L2Squared()) }

// L2Squared returns sum f_i^2.
func (v Vector) L2Squared() float64 {
	var t float64
	for _, x := range v {
		t += float64(x) * float64(x)
	}
	return t
}

// Lp returns (sum |f_i|^p)^(1/p) for p > 0.
func (v Vector) Lp(p float64) float64 {
	if p <= 0 {
		panic("stream: Lp requires p > 0; use L0 for p = 0")
	}
	var t float64
	for _, x := range v {
		t += math.Pow(math.Abs(float64(x)), p)
	}
	return math.Pow(t, 1/p)
}

// Inner returns the inner product <v, w>.
func (v Vector) Inner(w Vector) int64 {
	// Iterate the smaller map.
	a, b := v, w
	if len(b) < len(a) {
		a, b = b, a
	}
	var t int64
	for i, x := range a {
		t += x * b[i]
	}
	return t
}

// Entry pairs a coordinate with its frequency; used for top-k reports.
type Entry struct {
	Index uint64
	Value int64
}

// TopK returns the k entries of largest |value|, sorted by decreasing
// |value| with index as tie-break (deterministic).
func (v Vector) TopK(k int) []Entry {
	all := make([]Entry, 0, len(v))
	for i, x := range v {
		all = append(all, Entry{i, x})
	}
	sort.Slice(all, func(a, b int) bool {
		av, bv := Abs64(all[a].Value), Abs64(all[b].Value)
		if av != bv {
			return av > bv
		}
		return all[a].Index < all[b].Index
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// ErrK2 returns Err^k_2(f): the L2 norm of f with its k largest-magnitude
// entries removed (the tail error Count-Sketch guarantees are stated in).
func (v Vector) ErrK2(k int) float64 {
	top := v.TopK(k)
	removed := make(map[uint64]bool, len(top))
	for _, e := range top {
		removed[e.Index] = true
	}
	var t float64
	for i, x := range v {
		if !removed[i] {
			t += float64(x) * float64(x)
		}
	}
	return math.Sqrt(t)
}

// HeavyHitters returns all coordinates with |f_i| >= phi * ||f||_1,
// sorted by index. It is the exact reference for the L1 HH problem.
func (v Vector) HeavyHitters(phi float64) []uint64 {
	thr := phi * float64(v.L1())
	var out []uint64
	for i, x := range v {
		if math.Abs(float64(x)) >= thr {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// L2HeavyHitters returns all coordinates with |f_i| >= phi * ||f||_2.
func (v Vector) L2HeavyHitters(phi float64) []uint64 {
	thr := phi * v.L2()
	var out []uint64
	for i, x := range v {
		if math.Abs(float64(x)) >= thr {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Support returns the nonzero coordinates, sorted.
func (v Vector) Support() []uint64 {
	out := make([]uint64, 0, len(v))
	for i := range v {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Tracker consumes a stream and maintains exact model state: the
// frequency vector f, the insertion vector I, the deletion vector D
// (Definition 1 decomposes f = I - D), the unit length m, and whether
// every prefix stayed entrywise nonnegative (strict turnstile).
type Tracker struct {
	N      uint64
	F      Vector // current frequencies
	I      Vector // insertions per coordinate (nonnegative)
	D      Vector // deletion magnitudes per coordinate (nonnegative)
	M      int64  // unit-update length: sum of |Delta| so far
	Strict bool   // true while all prefixes are entrywise >= 0
}

// NewTracker returns an empty tracker over a universe of size n.
func NewTracker(n uint64) *Tracker {
	return &Tracker{N: n, F: make(Vector), I: make(Vector), D: make(Vector), Strict: true}
}

// Update feeds one stream update.
func (t *Tracker) Update(u Update) {
	if u.Index >= t.N {
		panic(fmt.Sprintf("stream: index %d outside universe [0,%d)", u.Index, t.N))
	}
	t.F.Apply(u)
	t.M += Abs64(u.Delta)
	if u.Delta >= 0 {
		if u.Delta != 0 {
			t.I[u.Index] += u.Delta
		}
	} else {
		t.D[u.Index] += -u.Delta
		if t.F[u.Index] < 0 {
			t.Strict = false
		}
	}
}

// Consume feeds a whole stream.
func (t *Tracker) Consume(s *Stream) {
	for _, u := range s.Updates {
		t.Update(u)
	}
}

// F0 returns the number of distinct coordinates ever touched, the F0 of
// the stream in the paper's L0 alpha-property F0 <= alpha * L0.
func (t *Tracker) F0() int64 {
	seen := make(map[uint64]bool, len(t.I)+len(t.D))
	for i := range t.I {
		seen[i] = true
	}
	for i := range t.D {
		seen[i] = true
	}
	return int64(len(seen))
}

// AlphaL1 returns the smallest alpha for which the stream satisfies the
// L1 alpha-property: ||I + D||_1 / ||f||_1 (Definition 1 with p = 1).
// It returns +Inf when ||f||_1 = 0 but updates occurred.
func (t *Tracker) AlphaL1() float64 {
	l1 := t.F.L1()
	num := t.I.L1() + t.D.L1()
	if num == 0 {
		return 1
	}
	if l1 == 0 {
		return math.Inf(1)
	}
	return float64(num) / float64(l1)
}

// AlphaL0 returns F0 / L0, the smallest alpha for the L0 alpha-property.
func (t *Tracker) AlphaL0() float64 {
	l0 := t.F.L0()
	f0 := t.F0()
	if f0 == 0 {
		return 1
	}
	if l0 == 0 {
		return math.Inf(1)
	}
	return float64(f0) / float64(l0)
}

// StrongAlpha returns max_i (I_i + D_i) / |f_i| over updated coordinates
// (Definition 2). It returns +Inf if some updated coordinate ends at 0.
func (t *Tracker) StrongAlpha() float64 {
	seen := make(map[uint64]bool, len(t.I)+len(t.D))
	for i := range t.I {
		seen[i] = true
	}
	for i := range t.D {
		seen[i] = true
	}
	worst := 1.0
	for i := range seen {
		traffic := t.I[i] + t.D[i]
		f := Abs64(t.F[i])
		if f == 0 {
			return math.Inf(1)
		}
		if r := float64(traffic) / float64(f); r > worst {
			worst = r
		}
	}
	return worst
}

// HasAlphaL1 reports whether the stream satisfies the L1 alpha-property
// for the given alpha.
func (t *Tracker) HasAlphaL1(alpha float64) bool { return t.AlphaL1() <= alpha }

// ExpandUnits rewrites a stream into unit updates (|Delta| = 1), the
// normalization Sections 2-5 of the paper assume. The result has
// UnitLength identical to the input.
func ExpandUnits(s *Stream) *Stream {
	out := &Stream{N: s.N}
	out.Updates = make([]Update, 0, s.UnitLength())
	for _, u := range s.Updates {
		step := int64(1)
		if u.Delta < 0 {
			step = -1
		}
		for k := int64(0); k < Abs64(u.Delta); k++ {
			out.Updates = append(out.Updates, Update{u.Index, step})
		}
	}
	return out
}

// Abs64 returns |x| — the one integer absolute value the sketch
// packages share.
func Abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
