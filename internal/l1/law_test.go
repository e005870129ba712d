package l1

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/sweep"
	"repro/internal/wire/wiretest"
)

// perUnit is the law the walk must keep, written from Figure 4 alone:
// every unit update moves the clock by its own coin (a Morris increment
// with probability 2^-v, or one exact step), syncs the window there and
// flips one coin per live level j, kept with probability s^-j.
type perUnit struct {
	base  int64
	exact bool
	rng   *rand.Rand
	v     uint
	t     int64
	win   *sample.Window[level]
}

func (o *perUnit) unit(delta int64) {
	if o.exact {
		o.t++
	} else if o.v < 63 && o.rng.Uint64()&(1<<o.v-1) == 0 {
		o.v++
	}
	o.win.Sync(o.now(), newLevel)
	for j, lv := range o.win.Each {
		if o.rng.Int63n(sample.Pow(o.base, j)) != 0 {
			continue
		}
		if delta > 0 {
			lv.pos++
		} else {
			lv.neg++
		}
	}
}

func (o *perUnit) now() int64 {
	if o.exact {
		return o.t
	}
	return 1<<o.v - 1
}

// lawStream mixes unit, wide (up to 7) and zero deltas, one in five a
// deletion: 1200 updates, about 4300 units.
func lawStream() []stream.Update {
	us := wiretest.SignedUnits(1200, true)
	for i := 0; i < len(us); i += 13 {
		us[i].Delta = 0
	}
	return us
}

// TestWalkMatchesPerUnitLaw is the judge of the clock walk: over 1000
// fixed seeds per side, base 4 and 16 and both clocks, the estimator
// fed per item (a batch of one) and in batches of 7, 513 and 1024 must
// leave the law perUnit leaves. The Morris exponent, the estimate and
// the counters of the oldest and newest live level are compared with
// sweep.SameDistribution. Exactly equal on every seed: the unit count,
// the exact clock's live set, and level 0's (c+, c-) — the stream's
// signed unit counts — at every batch boundary while level 0 is live.
func TestWalkMatchesPerUnitLaw(t *testing.T) {
	const (
		seeds = 1000
		alarm = 1e-4
	)
	us := lawStream()
	var units int64
	for _, u := range us {
		units += stream.Abs64(u.Delta)
	}
	for _, base := range []int64{4, 16} {
		for _, exact := range []bool{false, true} {
			name := fmt.Sprintf("base %d exact=%v", base, exact)
			stats := func(v int, win *sample.Window[level]) []float64 {
				jo, old := win.Oldest()
				var jn int
				var newest *level
				for j, lv := range win.Each {
					jn, newest = j, lv
				}
				est := float64(sample.Pow(base, jo)) * float64(old.pos-old.neg)
				return []float64{float64(v), est, float64(old.pos), float64(old.neg), float64(newest.pos), float64(newest.neg), float64(jo), float64(jn)}
			}
			want := make([][]float64, 8)
			for seed := int64(1); seed <= seeds; seed++ {
				o := &perUnit{base: base, exact: exact, rng: rand.New(rand.NewSource(seed)), win: sample.NewWindow[level](base)}
				for _, u := range us {
					for range stream.Abs64(u.Delta) {
						o.unit(u.Delta)
					}
				}
				for k, x := range stats(int(o.v), o.win) {
					want[k] = append(want[k], x)
				}
				if lo, hi := sample.ActiveLevels(o.now(), base); seed == 1 && (lo < 1 || hi == lo) {
					t.Fatalf("%s: the oracle ends on levels %d..%d; the test needs two sampled ones", name, lo, hi)
				}
			}
			for _, size := range []int{1, 7, 513, 1024} {
				got := make([][]float64, 8)
				for seed := int64(1); seed <= seeds; seed++ {
					rng := rand.New(rand.NewSource(seed + int64(size)<<32))
					a := New(rng, base)
					if exact {
						a = NewExactClock(rng, base)
					}
					var pos, neg int64
					for off := 0; off < len(us); off += size {
						chunk := us[off:min(off+size, len(us))]
						if size == 1 {
							a.Update(chunk[0].Index, chunk[0].Delta)
						} else {
							core.UpdateBatch(a.UpdateColumns, chunk)
						}
						for _, u := range chunk {
							pos, neg = pos+max(u.Delta, 0), neg+max(-u.Delta, 0)
						}
						if lv := a.win.At(0); lv != nil && (lv.pos != pos || lv.neg != neg) {
							t.Fatalf("%s batch %d seed %d: level 0 holds (%d,%d) after %d updates, the stream (%d,%d)",
								name, size, seed, lv.pos, lv.neg, off+len(chunk), pos, neg)
						}
					}
					if a.Units() != units {
						t.Fatalf("%s batch %d seed %d: %d units, the stream has %d", name, size, seed, a.Units(), units)
					}
					if lo, hi := sample.ActiveLevels(units, base); exact && fmt.Sprint(wiretest.LiveSet(a.win.Each)) != fmt.Sprint([]int{lo, hi}) {
						t.Fatalf("%s batch %d seed %d: live levels %v, the schedule's %d..%d", name, size, seed, wiretest.LiveSet(a.win.Each), lo, hi)
					}
					v := 0
					if !exact {
						v = a.clock.m.Exponent()
					}
					for k, x := range stats(v, a.win) {
						got[k] = append(got[k], x)
					}
				}
				for k, stat := range []string{"Morris exponent", "estimate", "oldest c+", "oldest c-", "newest c+", "newest c-", "oldest level", "newest level"} {
					if !sweep.SameDistribution(want[k], got[k], alarm) {
						t.Errorf("%s batch %d: %s is not distributed as per-unit feeding leaves it", name, size, stat)
					}
				}
			}
		}
	}
}
