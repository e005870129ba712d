package support

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/l0"
	"repro/internal/stream"
	"repro/internal/wire/wiretest"
)

// Differentials for the windowed ingest path: UpdateColumns must leave
// the sampler bit-identical to per-item Update, which stays the oracle.
// Nothing on either path draws randomness, so "identical" means equal
// MarshalBinary bytes.

// oddDeltas are the delta shapes a column must survive: zeros (skipped
// before the rough estimator sees the key), unit and wide magnitudes of
// both signs, and the one int64 whose negation overflows.
var oddDeltas = []int64{0, 1, 1, 1, -1, -1, 7, -7, 1 << 40, -(1 << 40), math.MinInt64}

// burstStream interleaves bursts of never-seen keys (each burst raises
// R_t, usually several times) with quiet stretches that revisit known
// keys (R_t holds still).
func burstStream(rng *rand.Rand, n uint64, bursts, burstLen, quietLen int) []stream.Update {
	var us []stream.Update
	fresh := uint64(1)
	key := func(c uint64) uint64 { return c * 0x9E3779B97F4A7C15 % n }
	for b := 0; b < bursts; b++ {
		for i := 0; i < burstLen; i++ {
			us = append(us, stream.Update{Index: key(fresh), Delta: 1})
			fresh++
		}
		for i := 0; i < quietLen; i++ {
			us = append(us, stream.Update{
				Index: key(1 + uint64(rng.Int63n(int64(fresh)))),
				Delta: oddDeltas[rng.Intn(len(oddDeltas))],
			})
		}
		burstLen *= 2
	}
	return us
}

// revisit draws updates over the keys of an already-fed stream.
func revisit(rng *rand.Rand, fed []stream.Update, count int) []stream.Update {
	us := make([]stream.Update, count)
	for i := range us {
		us[i] = stream.Update{Index: fed[rng.Intn(len(fed))].Index, Delta: oddDeltas[rng.Intn(len(oddDeltas))]}
	}
	return us
}

// cutter returns successive batch lengths: a fixed size, or random in
// [1, 4096] when size is 0.
func cutter(rng *rand.Rand, size int) func() int {
	return func() int {
		if size > 0 {
			return size
		}
		return 1 + rng.Intn(4096)
	}
}

func checkSamplers(t testing.TB, item, cols *Sampler, where string) {
	t.Helper()
	if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, cols)) {
		t.Fatalf("%s: MarshalBinary differs (live levels %d vs %d, R_t %d vs %d)", where,
			item.LiveLevels(), cols.LiveLevels(), item.rough.Estimate(), cols.rough.Estimate())
	}
	if a, b := item.SpaceBits(), cols.SpaceBits(); a != b {
		t.Fatalf("%s: SpaceBits %d vs %d", where, a, b)
	}
	if a, b := item.LiveLevels(), cols.LiveLevels(); a != b {
		t.Fatalf("%s: LiveLevels %d vs %d", where, a, b)
	}
	if a, b := item.Recover(), cols.Recover(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: Recover %v vs %v", where, a, b)
	}
}

// feedSamplers feeds item per update and cols per batch, comparing
// after EVERY batch. It returns how many batches moved R_t and how many
// of those held more than one update (a slide inside a batch).
func feedSamplers(t testing.TB, item, cols *Sampler, us []stream.Update, cut func() int) (moved, inside int) {
	t.Helper()
	for off := 0; off < len(us); {
		n := min(cut(), len(us)-off)
		before := item.rough.Estimate()
		for _, u := range us[off : off+n] {
			item.Update(u.Index, u.Delta)
		}
		core.UpdateBatch(cols.UpdateColumns, us[off:off+n])
		checkSamplers(t, item, cols, fmt.Sprintf("after updates [%d,%d)", off, off+n))
		if item.rough.Estimate() != before {
			moved++
			if n > 1 {
				inside++
			}
		}
		off += n
	}
	return moved, inside
}

func samplerPair(p Params) (item, cols *Sampler) {
	return NewSampler(rand.New(rand.NewSource(41)), p), NewSampler(rand.New(rand.NewSource(41)), p)
}

// restorePair restores blob into a samplerPair's twins.
func restorePair(t *testing.T, p Params, blob []byte) (item, cols *Sampler) {
	item, cols = samplerPair(p)
	return wiretest.Restore(t, item, blob), wiretest.Restore(t, cols, blob)
}

// TestUpdateColumnsMatchesScalar is the regime matrix: windowed and
// unwindowed; a stream that slides the window many times, one that
// holds it still, and batch cuts from 1 through past the 4096-update column chunk — so
// events fall at batch heads, batch tails and (the large cuts) inside
// batches, several per batch during the early bursts.
func TestUpdateColumnsMatchesScalar(t *testing.T) {
	const n = 1 << 20
	for _, windowed := range []bool{true, false} {
		p := Params{N: n, K: 4, SparsityFactor: 2, Windowed: windowed, Window: 3}
		for _, size := range []int{1, 2, 63, 1024, 4096, 5000, 0} {
			t.Run(fmt.Sprintf("sliding/windowed=%v/cut=%d", windowed, size), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(size)))
				us := burstStream(rng, n, 9, 40, 300)
				if size == 1 || size == 2 {
					us = us[:4000] // a marshal and a decode per update: keep the early, event-dense part
				}
				item, cols := samplerPair(p)
				moved, inside := feedSamplers(t, item, cols, us, cutter(rng, size))
				if size <= 1024 && moved < 3 {
					t.Fatalf("R_t moved in %d batches, want several", moved)
				}
				if size >= 63 && inside == 0 {
					t.Fatalf("no batch moved R_t inside itself")
				}
			})
		}
		t.Run(fmt.Sprintf("steady/windowed=%v", windowed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			item, cols := samplerPair(p)
			warm := burstStream(rng, n, 8, 40, 0)
			feedSamplers(t, item, cols, warm, cutter(rng, 1024))
			// Only known keys from here on: R_t must hold still.
			if moved, _ := feedSamplers(t, item, cols, revisit(rng, warm, 20000), cutter(rng, 0)); moved != 0 {
				t.Fatalf("steady stream moved R_t in %d batches", moved)
			}
		})
	}
}

// TestUpdateColumnsAfterRestore: a state restored from MarshalBinary
// mid-stream carries an unsynced live set; both paths must continue
// from it identically, and identically to the instance that was never
// marshalled.
func TestUpdateColumnsAfterRestore(t *testing.T) {
	const n = 1 << 20
	for _, windowed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(8))
		us := burstStream(rng, n, 8, 40, 200)
		third := len(us) / 3
		p := Params{N: n, K: 4, SparsityFactor: 2, Windowed: windowed, Window: 3}
		orig, _ := samplerPair(p)
		core.UpdateBatch(orig.UpdateColumns, us[:third])
		item, cols := restorePair(t, p, wiretest.MustMarshal(t, orig))
		feedSamplers(t, item, cols, us[third:], cutter(rng, 0))
		core.UpdateBatch(orig.UpdateColumns, us[third:])
		checkSamplers(t, orig, cols, fmt.Sprintf("windowed=%v: never-marshalled vs restored", windowed))
	}
}

// TestUpdateColumnsFromCraftedBlob: blobs whose live levels disagree
// with their own rough estimate — levels outside the window, levels
// missing from it, a running max that lags its bitmaps. The first
// update makes the per-item path converge; the column path must
// converge to the same bytes, whatever the first batch looks like.
func TestUpdateColumnsFromCraftedBlob(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(9))
	us := burstStream(rng, n, 8, 40, 200)
	crafts := map[string]func(sp *Sampler){
		"extra-and-missing-levels": func(sp *Sampler) {
			lo, hi := sp.span(sp.rough.Estimate())
			sp.levels.Drop(max(lo, 0))
			sp.levels.Put(hi+1, sp.newLevel(hi+1))
			sp.levels.At(hi+1).Update(77, 3)
			sp.levels.Put(0, sp.newLevel(0))
		},
		"lagging-running-max": func(sp *Sampler) {
			// The untouched twin's rough estimator (running max 0) under
			// the fed twin's levels: every level is out of place.
			sp.rough = NewSampler(rand.New(rand.NewSource(41)), sp.params).rough
		},
	}
	for name, craft := range crafts {
		for _, size := range []int{1, 1000, 0} {
			t.Run(fmt.Sprintf("%s/cut=%d", name, size), func(t *testing.T) {
				p := Params{N: n, K: 4, SparsityFactor: 2, Windowed: true, Window: 3}
				src, _ := samplerPair(p)
				core.UpdateBatch(src.UpdateColumns, us[:len(us)/3])
				craft(src)
				item, cols := restorePair(t, p, wiretest.MustMarshal(t, src))
				// A leading zero delta must not trigger the convergence:
				// the per-item path returns before touching anything.
				rest := append([]stream.Update{{Index: 3, Delta: 0}}, us[len(us)/3:]...)
				if size == 1 {
					rest = rest[:2000]
				}
				feedSamplers(t, item, cols, rest, cutter(rand.New(rand.NewSource(2)), size))
			})
		}
	}
}

// TestSyncIsNoOpBetweenEvents pins the invariant the cut rests on: the
// live set is a function of the rough estimate alone, so re-syncing
// after an item changes nothing — Update has already synced if, and
// only if, R_t moved. The R_t gauge reads the last sync's estimate.
func TestSyncIsNoOpBetweenEvents(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(10))
	sp, _ := samplerPair(Params{N: n, K: 4, SparsityFactor: 2, Windowed: true, Window: 3})
	events := levelStats.Events.Load()
	moves := int64(0)
	for _, u := range burstStream(rng, n, 7, 40, 100) {
		before := sp.rough.Estimate()
		sp.Update(u.Index, u.Delta)
		if sp.rough.Estimate() != before {
			moves++
		}
		state := wiretest.MustMarshal(t, sp)
		// A restored window has forgotten what it was synced at, so this
		// Sync runs in full.
		full, _ := restorePair(t, sp.params, state)
		full.levels.Sync(full.rough, full.span, full.newLevel)
		if !bytes.Equal(state, wiretest.MustMarshal(t, full)) {
			t.Fatalf("sync after update of key %d changed the state", u.Index)
		}
	}
	if moves < 5 {
		t.Fatalf("stream moved R_t %d times, want several", moves)
	}
	if got := levelStats.Events.Load() - events; got != moves {
		t.Fatalf("repro_support_window_events_total grew by %d over %d moves of R_t", got, moves)
	}
	if got := levelStats.Rough.Load(); got != sp.rough.Estimate() {
		t.Fatalf("repro_support_rough_estimate reads %d after the last sync, R_t is %d", got, sp.rough.Estimate())
	}
}

// TestCloneLeavesSourceUntouched: a snapshot must not write to its
// source (Clone once advanced an rng the sampler carried), so
// concurrent Clones of one read-only view are race-free — run under
// -race.
func TestCloneLeavesSourceUntouched(t *testing.T) {
	sp, _ := samplerPair(Params{N: 1 << 20, K: 4, Windowed: true, Window: 3})
	core.UpdateBatch(sp.UpdateColumns, burstStream(rand.New(rand.NewSource(1)), 1<<20, 5, 40, 50))
	before := wiretest.MustMarshal(t, sp)
	done := make(chan []byte)
	for g := 0; g < 4; g++ {
		go func() {
			data, err := sp.CloneInto(nil).MarshalBinary()
			if err != nil {
				t.Error(err)
			}
			done <- data
		}()
	}
	for g := 0; g < 4; g++ {
		if !bytes.Equal(<-done, before) {
			t.Error("clone differs from its source")
		}
	}
	if !bytes.Equal(before, wiretest.MustMarshal(t, sp)) {
		t.Fatal("Clone changed its source")
	}
}

// FuzzWindowedColumnsDifferential lets the fuzzer own keys, deltas and
// batch cuts. The input is a little program: a header byte picks the
// variant and window, then records of two bytes — a burst of fresh keys
// (raises R_t), an update of a small known domain (holds it still), or
// a batch cut.
func FuzzWindowedColumnsDifferential(f *testing.F) {
	f.Add([]byte{1, 0, 200, 0, 255, 3, 0, 1, 9, 0, 255, 2, 77, 3, 0, 0, 255})
	f.Add([]byte{0, 0, 50, 1, 4, 1, 4, 3, 0, 0, 255, 0, 255, 0, 255})
	f.Add([]byte{7, 0, 255, 0, 255, 0, 255, 0, 255, 3, 0, 0, 255, 0, 255, 0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 1 || len(prog) > 400 {
			return
		}
		const n = 1 << 20
		item, cols := samplerPair(Params{N: n, K: 2, SparsityFactor: 2, Windowed: prog[0]&1 == 1, Window: int(prog[0]>>1) % 8})
		var batch []stream.Update
		flush := func() {
			for _, u := range batch {
				item.Update(u.Index, u.Delta)
			}
			core.UpdateBatch(cols.UpdateColumns, batch)
			checkSamplers(t, item, cols, fmt.Sprintf("program %v", prog))
			batch = batch[:0]
		}
		fresh := uint64(0)
		for pc := 1; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc], prog[pc+1]
			switch op % 4 {
			case 0: // burst of arg+1 fresh keys
				for i := 0; i <= int(arg); i++ {
					fresh++
					batch = append(batch, stream.Update{Index: fresh * 0x9E3779B97F4A7C15 % n, Delta: 1})
				}
			case 1, 2: // one update of a known small domain, odd delta
				batch = append(batch, stream.Update{
					Index: uint64(arg) * 0x9E3779B97F4A7C15 % n,
					Delta: oddDeltas[int(op/4)%len(oddDeltas)],
				})
			case 3:
				flush()
			}
		}
		flush()
	})
}

// BenchmarkUpdateColumns measures both ingest paths with the regime
// pinned. steady: the sampler is warmed until R_t has stopped moving
// and the timed loop revisits known keys — zero window events, asserted.
// sliding: every timed batch is made of never-seen keys on a sampler
// re-cloned from a small warm one every 64 batches, so R_t keeps rising
// — events occur, asserted.
func BenchmarkUpdateColumns(b *testing.B) {
	const n = 1 << 26
	p := Params{N: n, K: 32, Windowed: true, Window: RecommendedWindow(8)}
	for _, regime := range []string{"steady", "sliding"} {
		for _, size := range []int{1024, 4096} {
			for _, path := range []string{"scalar", "columns"} {
				b.Run(fmt.Sprintf("%s/len=%d/%s", regime, size, path), func(b *testing.B) {
					rng := rand.New(rand.NewSource(17))
					warm := NewSampler(rand.New(rand.NewSource(16)), p)
					warmKeys := 1 << 16
					if regime == "sliding" {
						warmKeys = 64
					}
					batch := core.GetBatch()
					defer core.PutBatch(batch)
					for i := 1; i <= warmKeys; i++ {
						batch.Append(uint64(i)*0x9E3779B97F4A7C15%n, 1)
					}
					warm.UpdateColumns(batch)
					sp, fresh := warm.CloneInto(nil), uint64(warmKeys)
					fill := func() {
						batch.Reset()
						for j := 0; j < size; j++ {
							if regime == "sliding" {
								fresh++
								batch.Append(fresh*0x9E3779B97F4A7C15%n, 1)
							} else {
								batch.Append(uint64(1+rng.Intn(warmKeys))*0x9E3779B97F4A7C15%n, int64(1-2*(j%8/7)))
							}
						}
					}
					fill()
					if path == "columns" {
						sp.UpdateColumns(batch) // size the entry scratch outside the timed loop
					}
					rt, moved := warm.rough.Estimate(), false
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if regime == "sliding" {
							b.StopTimer()
							if i%64 == 0 {
								moved = moved || sp.rough.Estimate() != rt
								sp, fresh = warm.CloneInto(nil), uint64(warmKeys)
							}
							fill()
							b.StartTimer()
						}
						if path == "columns" {
							sp.UpdateColumns(batch)
							continue
						}
						for j, k := range batch.Idx {
							sp.Update(k, batch.Delta[j])
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/update")
					moved = moved || sp.rough.Estimate() != rt
					if regime == "steady" && moved {
						b.Fatalf("steady regime saw a window event: R_t %d -> %d", rt, sp.rough.Estimate())
					}
					if regime == "sliding" && !moved {
						b.Fatalf("sliding regime saw no window event")
					}
				})
			}
		}
	}
}

// --- the planned batch: directed cases ---------------------------------
//
// The column path hashes each distinct key of a batch once and maps the
// rough estimator's cuts back through the plan's first-occurrence
// order. The cases aim at the places that mapping can go wrong; each is
// fed in lockstep (per-item Update against UpdateColumns; bytes,
// SpaceBits and Recover compared after every batch) to the windowed
// sampler and to the keep-all-levels baseline.

// raiserWalk feeds shadow never-seen keys (counted on by *next) until
// one raises R_t and returns the keys before it as +1 updates and the
// raiser, fed to the shadow only if feed is set.
func raiserWalk(t testing.TB, shadow *l0.RoughF0, next *uint64, n uint64, feed bool) (fill []stream.Update, raiser uint64) {
	for try := 0; try < 1<<16; try++ {
		*next++
		k := *next * 0x9E3779B97F4A7C15 % n
		if shadow.CloneInto(nil).Update(k) {
			if feed {
				shadow.Update(k)
			}
			return fill, k
		}
		shadow.Update(k)
		fill = append(fill, stream.Update{Index: k, Delta: 1})
	}
	t.Fatal("no run of fresh keys raises the rough estimate")
	return nil, 0
}

func TestUpdateColumnsDirectedCases(t *testing.T) {
	const n = 1 << 20
	up := func(k uint64, d int64) stream.Update { return stream.Update{Index: k, Delta: d} }
	cat := func(parts ...[]stream.Update) (us []stream.Update) {
		for _, p := range parts {
			us = append(us, p...)
		}
		return us
	}
	one := func(us ...stream.Update) []stream.Update { return us }
	for _, windowed := range []bool{true, false} {
		warm, cold := samplerPair(Params{N: n, K: 4, SparsityFactor: 2, Windowed: windowed, Window: 1})
		var known []uint64
		for j := uint64(1); j <= 150; j++ {
			known = append(known, j*0x9E3779B97F4A7C15%n)
			warm.Update(known[j-1], 1)
		}
		// A restored twin whose rough estimator is an untouched one (its
		// running max 0 under the fed twin's levels): unsynced, and every
		// level out of place until the first key of the first batch.
		lagging := warm.CloneInto(nil)
		lagging.rough = cold.rough.CloneInto(nil)
		restored, _ := restorePair(t, warm.params, wiretest.MustMarshal(t, lagging))
		var next uint64
		var shadow *l0.RoughF0
		walk := func(feed bool) ([]stream.Update, uint64) { return raiserWalk(t, shadow, &next, n, feed) }
		fresh := func() uint64 {
			next++
			k := next * 0x9E3779B97F4A7C15 % n
			shadow.Update(k)
			return k
		}
		cases := []struct {
			name  string
			start *Sampler
			build func() [][]stream.Update
		}{
			// Planning before compaction would rank a before b, and touch
			// the rough estimator with c, which per-item Update never sees.
			{"zero-first", warm, func() [][]stream.Update {
				fc, c := walk(false)
				fb, b := walk(true)
				fa, a := walk(true)
				return [][]stream.Update{cat(fc, one(up(c, 0), up(a, 0), up(known[0], 1)), fb, one(up(b, 1)), fa, one(up(a, 1), up(c, 0)))}
			}},
			{"raiser-repeated", warm, func() [][]stream.Update {
				f, r := walk(true)
				return [][]stream.Update{cat(one(up(known[0], 1)), f, one(up(r, 1), up(known[1], -1), up(r, 1), up(known[0], 1), up(r, -1)))}
			}},
			// Two raisers in a row: only a young estimator sees that.
			{"raisers-back-to-back", cold, func() [][]stream.Update {
				f1, r1 := walk(true)
				f2, r2 := walk(true)
				for len(f2) > 0 {
					f1, r1 = cat(f1, one(up(r1, 1)), f2), r2
					f2, r2 = walk(true)
				}
				return [][]stream.Update{cat(f1, one(up(r1, 1), up(r2, 1), up(r1, 1), up(r2, -1)))}
			}},
			// A key the batch nets to zero still reaches the rough estimator.
			{"plus-minus-one-run", warm, func() [][]stream.Update {
				f, r := walk(true)
				g := fresh()
				return [][]stream.Update{f, {up(r, 1), up(r, -1)}, {up(known[0], 1), up(g, 1), up(known[0], -1), up(g, -1)}}
			}},
			{"plus-minus-across-a-cut", warm, func() [][]stream.Update {
				g := fresh()
				f, r := walk(true)
				return [][]stream.Update{cat(one(up(g, 1), up(known[0], 1)), f, one(up(r, 1), up(g, -1), up(known[0], -1)))}
			}},
			{"huge-deltas", warm, func() [][]stream.Update {
				a, b, c := fresh(), fresh(), known[0]
				return [][]stream.Update{{
					up(a, math.MaxInt64), up(b, math.MinInt64), up(a, math.MaxInt64), up(c, math.MaxInt64),
					up(a, math.MinInt64), up(b, math.MinInt64), up(c, math.MaxInt64), up(c, math.MaxInt64),
				}}
			}},
			{"all-identical", warm, func() [][]stream.Update {
				f, r := walk(true)
				same := func(k uint64) []stream.Update {
					us := make([]stream.Update, 300)
					for j := range us {
						us[j] = up(k, oddDeltas[1+j%(len(oddDeltas)-1)])
					}
					return us
				}
				return [][]stream.Update{f, same(r), same(known[0])}
			}},
			{"all-distinct", warm, func() [][]stream.Update {
				us := make([]stream.Update, 700)
				for j := range us {
					us[j] = up(fresh(), 1)
				}
				return [][]stream.Update{us}
			}},
			// One update past the column chunk: two planned pieces, with a
			// known key and a +1/-1 pair on both sides of the split.
			{"chunk-plus-one", warm, func() [][]stream.Update {
				us := make([]stream.Update, 0, 4097)
				g := fresh()
				for len(us) < 4094 {
					us = append(us, up(known[len(us)%len(known)], 1), up(fresh(), 1))
				}
				return [][]stream.Update{append(us, up(g, 1), up(known[0], 5), up(g, -1))}
			}},
			// The first key repairs the window, raise or no raise, and is
			// then met again in the same batch.
			{"unsynced-first-key", restored, func() [][]stream.Update {
				return [][]stream.Update{{up(known[3], 1), up(known[4], 1), up(known[3], -1), up(known[3], 2)}}
			}},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("windowed=%v/%s", windowed, c.name), func(t *testing.T) {
				item, cols := c.start.CloneInto(nil), c.start.CloneInto(nil)
				next, shadow = 1<<32, item.rough.CloneInto(nil)
				moved := 0
				for _, us := range c.build() {
					m, _ := feedSamplers(t, item, cols, us, func() int { return len(us) })
					moved += m
				}
				if moved == 0 && c.name != "huge-deltas" {
					t.Fatal("no batch moved R_t: the case lost its point")
				}
			})
		}
	}
}

// TestUpdateColumnsCutsAtFirstOccurrence races the cut mapping. Which
// window an update is applied under shows only when its key is sampled
// by a level the cut beside it creates, so a one-level window is started
// cold over many key sets, in batches whose repeats make every ordinal
// differ from its position; a cut mapped one update off, or distinct
// keys scanned out of first-occurrence order, loses an update in a few
// of them.
func TestUpdateColumnsCutsAtFirstOccurrence(t *testing.T) {
	const n, trials = 1 << 12, 200
	cold, _ := samplerPair(Params{N: n, K: 8, SparsityFactor: 8, Windowed: true, Window: 0})
	for trial := uint64(0); trial < trials; trial++ {
		item, cols := cold.CloneInto(nil), cold.CloneInto(nil)
		key := func(j uint64) uint64 { return (trial*997 + j + 1) * 0x9E3779B97F4A7C15 % n }
		for fresh := uint64(0); fresh < 300; {
			// a b a c b c d ... : each new key between repeats of the last two.
			var us []stream.Update
			for len(us) < 9 {
				us = append(us, stream.Update{Index: key(fresh), Delta: 1})
				if fresh > 0 {
					us = append(us, stream.Update{Index: key(fresh - 1), Delta: 1})
				}
				us = append(us, stream.Update{Index: key(fresh), Delta: -1})
				fresh++
			}
			for _, u := range us {
				item.Update(u.Index, u.Delta)
			}
			core.UpdateBatch(cols.UpdateColumns, us)
			if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, cols)) {
				t.Fatalf("trial %d: one-level window diverged before fresh key %d", trial, fresh)
			}
		}
	}
}

// TestUpdateColumnsPlanCounters: one add per planned batch to each of
// the two series, n nonzero updates and d distinct keys.
func TestUpdateColumnsPlanCounters(t *testing.T) {
	sp, _ := samplerPair(Params{N: 1 << 20, K: 4, Windowed: true, Window: 3})
	n0, d0 := levelStats.BatchKeys.Load(), levelStats.KeysHashed.Load()
	core.UpdateBatch(sp.UpdateColumns, []stream.Update{{Index: 5, Delta: 1}, {Index: 9, Delta: 0}, {Index: 5, Delta: -1}, {Index: 7, Delta: 2}})
	if n, d := levelStats.BatchKeys.Load()-n0, levelStats.KeysHashed.Load()-d0; n != 3 || d != 2 {
		t.Fatalf("repro_l0_batch_keys_total grew by %d, repro_l0_keys_hashed_total by %d; want 3 and 2", n, d)
	}
}

// TestUpdateColumnsAllocationFree: a warm planned UpdateColumns — plan
// rebuilt, scratch sized — allocates nothing.
func TestUpdateColumnsAllocationFree(t *testing.T) {
	const n = 1 << 26
	sp := NewSampler(rand.New(rand.NewSource(16)), Params{N: n, K: 32, Windowed: true, Window: RecommendedWindow(8)})
	b := core.GetBatch()
	defer core.PutBatch(b)
	rng := rand.New(rand.NewSource(17))
	fill := func() { // a new batch each time: the plan is rebuilt, not served
		b.Reset()
		for j := 0; j < 2048; j++ {
			b.Append(uint64(1+rng.Intn(1<<11))*0x9E3779B97F4A7C15%n, int64(1-2*(j%8/7)))
		}
	}
	for warm := 0; warm < 16; warm++ { // every key seen, R_t at rest
		fill()
		sp.UpdateColumns(b)
	}
	if allocs := testing.AllocsPerRun(20, func() { fill(); sp.UpdateColumns(b) }); allocs != 0 {
		t.Fatalf("warm planned UpdateColumns allocates %.1f times per batch", allocs)
	}
}
