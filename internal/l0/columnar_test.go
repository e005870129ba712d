package l0

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/nt"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// Differentials for the windowed ingest paths: UpdateColumns / the
// column methods must leave every structure bit-identical to per-item
// Update, which stays the oracle. Nothing on either path draws
// randomness, so "identical" means equal MarshalBinary bytes.

// oddDeltas are the delta shapes a column must survive: zeros (skipped
// before the rough estimator sees the key), unit and wide magnitudes of
// both signs, and the one int64 whose negation overflows.
var oddDeltas = []int64{0, 1, 1, 1, -1, -1, 7, -7, 1 << 40, -(1 << 40), math.MinInt64}

// burstStream interleaves bursts of never-seen keys (each burst raises
// R_t, usually several times) with quiet stretches that revisit known
// keys (R_t holds still). Keys are spread over the universe by an odd
// multiplier so level hashes see arbitrary bit patterns.
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

func checkEstimators(t testing.TB, item, cols *Estimator, where string) {
	t.Helper()
	if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, cols)) {
		t.Fatalf("%s: MarshalBinary differs (live rows %d vs %d, R_t %d vs %d)", where,
			item.LiveRows(), cols.LiveRows(), item.final.Estimate(), cols.final.Estimate())
	}
	if a, b := item.SpaceBits(), cols.SpaceBits(); a != b {
		t.Fatalf("%s: SpaceBits %d vs %d", where, a, b)
	}
	if a, b := item.LiveRows(), cols.LiveRows(); a != b {
		t.Fatalf("%s: LiveRows %d vs %d", where, a, b)
	}
	if a, b := item.final.LiveLevels(), cols.final.LiveLevels(); a != b {
		t.Fatalf("%s: final.LiveLevels %d vs %d", where, a, b)
	}
	if a, b := item.Estimate(), cols.Estimate(); a != b {
		t.Fatalf("%s: Estimate %v vs %v", where, a, b)
	}
}

// feedEstimators feeds item per update and cols per batch, comparing
// after EVERY batch. It returns how many batches moved R_t and how many
// of those held more than one update (a slide inside a batch).
func feedEstimators(t testing.TB, item, cols *Estimator, us []stream.Update, cut func() int) (moved, inside int) {
	t.Helper()
	rt := func() int64 {
		if item.rough == nil {
			return 0
		}
		return item.rough.Estimate()
	}
	for off := 0; off < len(us); {
		n := min(cut(), len(us)-off)
		before := rt()
		for _, u := range us[off : off+n] {
			item.Update(u.Index, u.Delta)
		}
		core.UpdateBatch(cols.UpdateColumns, us[off:off+n])
		checkEstimators(t, item, cols, fmt.Sprintf("after updates [%d,%d)", off, off+n))
		if rt() != before {
			moved++
			if n > 1 {
				inside++
			}
		}
		off += n
	}
	return moved, inside
}

func estimatorPair(p Params) (item, cols *Estimator) {
	return NewEstimator(rand.New(rand.NewSource(41)), p), NewEstimator(rand.New(rand.NewSource(41)), p)
}

// restorePair restores blob into an estimatorPair's twins.
func restorePair(t *testing.T, p Params, blob []byte) (item, cols *Estimator) {
	item, cols = estimatorPair(p)
	return wiretest.Restore(t, item, blob), wiretest.Restore(t, cols, blob)
}

// TestUpdateColumnsMatchesScalar is the regime matrix: windowed and
// unwindowed; a stream that slides the window many times, one that
// holds it still, and batch cuts from 1 through past the 4096-update column chunk — so
// events fall at batch heads, batch tails and (the large cuts) inside
// batches, several per batch during the early bursts.
func TestUpdateColumnsMatchesScalar(t *testing.T) {
	const n = 1 << 30
	for _, windowed := range []bool{true, false} {
		p := Params{N: n, Eps: 0.25, Windowed: windowed, Window: 5}
		for _, size := range []int{1, 2, 63, 1024, 4096, 5000, 0} {
			t.Run(fmt.Sprintf("sliding/windowed=%v/cut=%d", windowed, size), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(size)))
				us := burstStream(rng, n, 9, 40, 300)
				if size == 1 || size == 2 {
					us = us[:2500*size] // a marshal per update: keep the early, event-dense part
				}
				item, cols := estimatorPair(p)
				moved, inside := feedEstimators(t, item, cols, us, cutter(rng, size))
				if !windowed {
					return
				}
				if size <= 1024 && moved < 3 {
					t.Fatalf("window moved in %d batches, want several", moved)
				}
				if size >= 63 && inside == 0 {
					t.Fatalf("no batch slid the window inside itself")
				}
			})
		}
		t.Run(fmt.Sprintf("steady/windowed=%v", windowed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			item, cols := estimatorPair(p)
			warm := burstStream(rng, n, 8, 40, 0)
			feedEstimators(t, item, cols, warm, cutter(rng, 1024))
			// Only known keys from here on: R_t must hold still.
			if moved, _ := feedEstimators(t, item, cols, revisit(rng, warm, 20000), cutter(rng, 0)); moved != 0 {
				t.Fatalf("steady stream moved the window in %d batches", moved)
			}
		})
	}
}

// revisit draws updates over the keys of an already-fed stream.
func revisit(rng *rand.Rand, fed []stream.Update, count int) []stream.Update {
	us := make([]stream.Update, count)
	for i := range us {
		us[i] = stream.Update{Index: fed[rng.Intn(len(fed))].Index, Delta: oddDeltas[rng.Intn(len(oddDeltas))]}
	}
	return us
}

// TestUpdateColumnsAfterRestore: a state restored from MarshalBinary
// mid-stream carries an unsynced live set; both paths must continue
// from it identically, and identically to the instance that was never
// marshalled.
func TestUpdateColumnsAfterRestore(t *testing.T) {
	const n = 1 << 30
	for _, windowed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(8))
		us := burstStream(rng, n, 8, 40, 200)
		half := len(us) / 3
		p := Params{N: n, Eps: 0.25, Windowed: windowed, Window: 5}
		orig, _ := estimatorPair(p)
		core.UpdateBatch(orig.UpdateColumns, us[:half])
		item, cols := restorePair(t, p, wiretest.MustMarshal(t, orig))
		feedEstimators(t, item, cols, us[half:], cutter(rng, 0))
		core.UpdateBatch(orig.UpdateColumns, us[half:])
		checkEstimators(t, orig, cols, fmt.Sprintf("windowed=%v: never-marshalled vs restored", windowed))
	}
}

// TestUpdateColumnsFromCraftedBlob: blobs whose live sets disagree with
// their own rough estimates — rows and levels outside the window, rows
// and levels missing from it, a running max that lags its bitmaps.
// The first update makes the per-item path converge; the column path
// must converge to the same bytes, whatever the first batch looks like.
func TestUpdateColumnsFromCraftedBlob(t *testing.T) {
	const n = 1 << 30
	rng := rand.New(rand.NewSource(9))
	us := burstStream(rng, n, 8, 40, 200)
	crafts := map[string]func(e *Estimator){
		"extra-and-missing-rows": func(e *Estimator) {
			lo, hi := e.span(e.rough.Estimate())
			lo = max(lo, 0)
			e.rows.Drop(lo)
			e.rows.Put(hi+3, e.newRow(hi+3))
			(*e.rows.At(hi + 3))[1] = 5
			if lo > 0 {
				e.rows.Put(0, e.newRow(0))
			}
		},
		"extra-and-missing-levels": func(e *Estimator) {
			lo, hi := e.final.span(e.rough.Estimate())
			e.final.levels.Drop(max(lo, 0))
			if hi < e.final.maxLevel {
				e.final.levels.Put(hi+1, e.final.newLevel(hi+1))
			}
		},
		"lagging-running-max": func(e *Estimator) {
			e.rough.best = 0
		},
		"running-max-ahead": func(e *Estimator) {
			e.rough.best *= 16
		},
	}
	for name, craft := range crafts {
		for _, size := range []int{1, 1000, 0} {
			t.Run(fmt.Sprintf("%s/cut=%d", name, size), func(t *testing.T) {
				p := Params{N: n, Eps: 0.25, Windowed: true, Window: 5}
				src, _ := estimatorPair(p)
				core.UpdateBatch(src.UpdateColumns, us[:len(us)/3])
				craft(src)
				item, cols := restorePair(t, p, wiretest.MustMarshal(t, src))
				// A leading zero delta must not trigger the convergence:
				// the per-item path returns before touching anything.
				rest := append([]stream.Update{{Index: 3, Delta: 0}}, us[len(us)/3:]...)
				if size == 1 {
					rest = rest[:2000]
				}
				feedEstimators(t, item, cols, rest, cutter(rand.New(rand.NewSource(2)), size))
			})
		}
	}
}

// TestSyncIsNoOpBetweenEvents pins the invariant the cut rests on: the
// live set is a function of the rough estimate alone, so re-syncing
// after an item changes nothing — Update has already synced if, and
// only if, R_t moved.
func TestSyncIsNoOpBetweenEvents(t *testing.T) {
	const n = 1 << 30
	rng := rand.New(rand.NewSource(10))
	e, _ := estimatorPair(Params{N: n, Eps: 0.25, Windowed: true, Window: 5})
	events := rowStats.Events.Load()
	moves := int64(0)
	for _, u := range burstStream(rng, n, 7, 40, 100) {
		before := e.rough.Estimate()
		e.Update(u.Index, u.Delta)
		if e.rough.Estimate() != before {
			moves++
		}
		state := wiretest.MustMarshal(t, e)
		// Forget what the windows were synced at: these two run in full.
		e.rows.syncedAt, e.final.levels.syncedAt = unsynced, unsynced
		e.rows.Sync(e.rough, e.span, e.newRow)
		e.final.levels.Sync(e.rough, e.final.span, e.final.newLevel)
		if !bytes.Equal(state, wiretest.MustMarshal(t, e)) {
			t.Fatalf("sync after update of key %d changed the state", u.Index)
		}
	}
	if moves < 5 {
		t.Fatalf("stream moved R_t %d times, want several", moves)
	}
	if got := rowStats.Events.Load() - events; got != moves {
		t.Fatalf("repro_l0_window_events_total grew by %d over %d moves of R_t", got, moves)
	}
}

// TestRoughL0UpdateColumnMatchesScalar: the level estimator's run
// apply, cut by an R_t of its own (soloL0) and fed zero deltas, which
// the Estimator's column path never passes it.
func TestRoughL0UpdateColumnMatchesScalar(t *testing.T) {
	const n = 1 << 30
	for _, windowed := range []bool{true, false} {
		for _, size := range []int{1, 64, 4096, 0} {
			rng := rand.New(rand.NewSource(int64(size) + 1))
			us := burstStream(rng, n, 8, 40, 200)
			if size == 1 {
				us = us[:3000]
			}
			mk := func() *soloL0 { return newSolo(rand.New(rand.NewSource(6)), n, windowed, 3) }
			item, cols := mk(), mk()
			col := make([]uint64, 2*4096)
			cut := cutter(rng, size)
			for off := 0; off < len(us); {
				m := min(cut(), len(us)-off)
				keys, deltas := make([]uint64, m), make([]int64, m)
				for j, u := range us[off : off+m] {
					item.Update(u.Index, u.Delta)
					keys[j], deltas[j] = u.Index, u.Delta
				}
				cols.UpdateColumn(&core.Batch{Idx: keys, Delta: deltas}, col)
				if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, cols)) {
					t.Fatalf("windowed=%v cut=%d: state differs after updates [%d,%d)", windowed, size, off, off+m)
				}
				off += m
			}
		}
	}
}

// TestRaisingItemAppliesUnderNewWindow: the item that raises R_t is
// applied under the window it produces. The order is observable only
// when that item hashes to a level its own raise creates, and only
// until the window moves on, so a one-level window (Window 0) is raced
// over many seeds in batches of five; a column path that applied the
// item before re-syncing would lose it in about one seed in ten.
func TestRaisingItemAppliesUnderNewWindow(t *testing.T) {
	const n, batch = 1 << 30, 5
	keys, deltas := make([]uint64, 400), make([]int64, 400)
	for j := range keys {
		keys[j], deltas[j] = uint64(j+1)*0x9E3779B97F4A7C15%n, 1
	}
	col := make([]uint64, 2*batch)
	for seed := int64(0); seed < 300; seed++ {
		item := newSolo(rand.New(rand.NewSource(seed)), n, true, 0)
		cols := newSolo(rand.New(rand.NewSource(seed)), n, true, 0)
		for off := 0; off < len(keys); off += batch {
			for j := off; j < off+batch; j++ {
				item.Update(keys[j], deltas[j])
			}
			cols.UpdateColumn(&core.Batch{Idx: keys[off : off+batch], Delta: deltas[off : off+batch]}, col)
			if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, cols)) {
				t.Fatalf("seed %d: one-level window diverged in updates [%d,%d)", seed, off, off+batch)
			}
		}
	}
}

// TestRoughF0UpdateColumnMatchesUpdate: UpdateColumn must stop exactly
// at the first key whose per-item Update raises the estimate, with the
// consumed prefix applied and nothing beyond it.
func TestRoughF0UpdateColumnMatchesUpdate(t *testing.T) {
	for _, copies := range []int{1, 2, 16} {
		for _, size := range []int{1, 3, 500, 4096} {
			rng := rand.New(rand.NewSource(int64(copies*size) + 3))
			item := NewRoughF0(rand.New(rand.NewSource(12)), copies)
			cols := NewRoughF0(rand.New(rand.NewSource(12)), copies)
			raises := 0
			for fresh, round := uint64(0), 0; round < max(60, 4000/size); round++ {
				keys := make([]uint64, size)
				for j := range keys {
					if rng.Intn(3) > 0 || fresh == 0 {
						fresh++
						keys[j] = fresh * 0x9E3779B97F4A7C15
					} else {
						keys[j] = (1 + uint64(rng.Int63n(int64(fresh)))) * 0x9E3779B97F4A7C15
					}
				}
				for pos := 0; pos < len(keys); {
					cut := pos + cols.UpdateColumn(keys[pos:])
					want := len(keys)
					for j := pos; j < len(keys); j++ {
						if item.Update(keys[j]) {
							want = j
							break
						}
					}
					if cut != want {
						t.Fatalf("copies=%d len=%d: column stopped at %d, per-item raise at %d", copies, size, cut, want)
					}
					if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, cols)) {
						t.Fatalf("copies=%d len=%d: state differs after key %d", copies, size, cut)
					}
					if cut < len(keys) {
						raises++
					}
					pos = cut + 1
				}
			}
			if raises < 4 {
				t.Fatalf("copies=%d len=%d: estimate rose %d times, want several", copies, size, raises)
			}
		}
	}
}

// TestRoughF0StaleRestore: a blob whose running max lags its bitmaps is
// repaired by the next update on both paths, raise or no raise.
func TestRoughF0StaleRestore(t *testing.T) {
	src := NewRoughF0(rand.New(rand.NewSource(13)), 16)
	for i := uint64(1); i < 3000; i++ {
		src.Update(i)
	}
	honest := src.Estimate()
	src.best = 0
	blob := wiretest.MustMarshal(t, src)
	item, cols := NewRoughF0(rand.New(rand.NewSource(13)), 16), NewRoughF0(rand.New(rand.NewSource(13)), 16)
	for _, r := range []*RoughF0{item, cols} {
		wiretest.Restore(t, r, blob)
		if r.Estimate() != 0 {
			t.Fatalf("restore changed the running max to %d", r.Estimate())
		}
	}
	keys := []uint64{7, 8, 9} // seen before: no top level rises
	if !item.Update(keys[0]) || cols.UpdateColumn(keys) != 0 {
		t.Fatal("first update after a stale restore did not raise the estimate")
	}
	if item.Estimate() != honest || cols.Estimate() != honest {
		t.Fatalf("estimates %d / %d after repair, want %d", item.Estimate(), cols.Estimate(), honest)
	}
}

// TestRoughF0UnmarshalRejectsLevelOutOfRange: no update sets a level
// above 60, and current() indexes by the top level — a blob with bits
// 61..63 set must be refused, not panic.
func TestRoughF0UnmarshalRejectsLevelOutOfRange(t *testing.T) {
	fresh := func() *RoughF0 { return NewRoughF0(rand.New(rand.NewSource(14)), 16) }
	src := fresh()
	src.Update(5)
	for bit := 61; bit < 64; bit++ {
		src.bitmaps[len(src.bitmaps)-1] |= 1 << bit
		if err := wire.Fill(wiretest.MustMarshal(t, src), fresh()); err == nil {
			t.Fatalf("accepted a bitmap with level %d set", bit)
		}
		src.bitmaps[len(src.bitmaps)-1] &^= 1 << bit
	}
	src.bitmaps[0] |= hash.LevelBit(0) // the highest honest level stays accepted
	if err := wire.Fill(wiretest.MustMarshal(t, src), fresh()); err != nil {
		t.Fatalf("rejected level 60: %v", err)
	}
}

var fuzzTemplates = struct {
	sync.Mutex
	m map[Params]*Estimator
}{m: map[Params]*Estimator{}}

// FuzzWindowedColumnsDifferential lets the fuzzer own keys, deltas and
// batch cuts. The input is a little program: a header byte picks the
// variant and window, then records of two bytes — a burst of fresh keys
// (slides the window), an update of a small known domain (holds it
// still), or a batch cut.
func FuzzWindowedColumnsDifferential(f *testing.F) {
	f.Add([]byte{1, 0, 200, 0, 255, 3, 0, 1, 9, 0, 255, 2, 77, 3, 0, 0, 255})
	f.Add([]byte{0, 0, 50, 1, 4, 1, 4, 3, 0, 0, 255, 0, 255, 0, 255})
	f.Add([]byte{7, 0, 255, 0, 255, 0, 255, 0, 255, 3, 0, 0, 255, 0, 255, 0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 1 || len(prog) > 400 {
			return
		}
		const n = 1 << 24
		p := Params{N: n, Eps: 0.25, Windowed: prog[0]&1 == 1, Window: int(prog[0]>>1) % 8}
		// Construction searches for some thirty random primes; clone a
		// per-variant template instead of paying that on every input.
		fuzzTemplates.Lock()
		tmpl := fuzzTemplates.m[p]
		if tmpl == nil {
			tmpl, _ = estimatorPair(p)
			fuzzTemplates.m[p] = tmpl
		}
		item, cols := tmpl.CloneInto(nil), tmpl.CloneInto(nil)
		fuzzTemplates.Unlock()
		var batch []stream.Update
		flush := func() {
			for _, u := range batch {
				item.Update(u.Index, u.Delta)
			}
			core.UpdateBatch(cols.UpdateColumns, batch)
			checkEstimators(t, item, cols, fmt.Sprintf("program %v", prog))
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
// pinned. steady: the structure is warmed until R_t has stopped moving
// and the timed loop revisits known keys — zero window events, asserted.
// sliding: every timed batch is made of never-seen keys on a structure
// re-cloned from a small warm one every 64 batches, so R_t keeps rising
// — events occur, asserted.
func BenchmarkUpdateColumns(b *testing.B) {
	const n = 1 << 26
	p := Params{N: n, Eps: 0.05, Windowed: true, Window: RecommendedWindow(8, 0.05)}
	for _, regime := range []string{"steady", "sliding"} {
		for _, size := range []int{1024, 4096} {
			for _, path := range []string{"scalar", "columns"} {
				b.Run(fmt.Sprintf("%s/len=%d/%s", regime, size, path), func(b *testing.B) {
					rng := rand.New(rand.NewSource(17))
					warm := NewEstimator(rand.New(rand.NewSource(16)), p)
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
					e, fresh := warm.CloneInto(nil), uint64(warmKeys)
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
					rt, moved := warm.rough.Estimate(), false
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if regime == "sliding" {
							b.StopTimer()
							if i%64 == 0 {
								moved = moved || e.rough.Estimate() != rt
								e, fresh = warm.CloneInto(nil), uint64(warmKeys)
							}
							fill()
							b.StartTimer()
						}
						if path == "columns" {
							e.UpdateColumns(batch)
							continue
						}
						for j, k := range batch.Idx {
							e.Update(k, batch.Delta[j])
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/update")
					moved = moved || e.rough.Estimate() != rt
					if regime == "steady" && moved {
						b.Fatalf("steady regime saw a window event: R_t %d -> %d", rt, e.rough.Estimate())
					}
					if regime == "sliding" && !moved {
						b.Fatalf("sliding regime saw no window event")
					}
				})
			}
		}
	}
}

// BenchmarkRoughF0Cold feeds a FRESH estimator its first 4096 keys, the
// stretch in which top levels rise every few keys: the column scan must
// not hash whole columns ahead of each rise.
func BenchmarkRoughF0Cold(b *testing.B) {
	const size = 4096
	keys := make([]uint64, size)
	for j := range keys {
		keys[j] = uint64(j+1) * 0x9E3779B97F4A7C15
	}
	fresh := NewRoughF0(rand.New(rand.NewSource(18)), 16)
	for _, path := range []string{"scalar", "columns"} {
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := fresh.CloneInto(nil)
				if path == "scalar" {
					for _, k := range keys {
						r.Update(k)
					}
					continue
				}
				for pos := 0; pos < size; {
					pos += r.UpdateColumn(keys[pos:]) + 1
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/update")
		})
	}
}

// TestTermMatchesMulMod: the unit-delta short cut of Estimator.term
// must equal the embed-then-MulMod it skips for every modulus and
// multiplier a blob can carry — multipliers at or above p and moduli
// past 2^63 (where the signed embedding misbehaves) included.
func TestTermMatchesMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20000; trial++ {
		e := &Estimator{p: 2 + rng.Uint64()>>uint(rng.Intn(63))}
		mult := rng.Uint64() >> uint(rng.Intn(64))
		if rng.Intn(4) == 0 {
			mult %= e.p
		}
		for _, delta := range []int64{1, -1, 2, -2, math.MinInt64, rng.Int63()} {
			dm := delta % int64(e.p)
			if dm < 0 {
				dm += int64(e.p)
			}
			if got, want := e.term(delta, mult), nt.MulMod(uint64(dm), mult, e.p); got != want {
				t.Fatalf("p=%d mult=%d delta=%d: term %d, want %d", e.p, mult, delta, got, want)
			}
		}
	}
}

// --- the planned batch: directed cases ---------------------------------
//
// The column path hashes each distinct key of a batch once and maps the
// rough estimator's cuts back through the plan's first-occurrence
// order. The cases below aim at the places that mapping can go wrong;
// each is fed in lockstep (per-item Update against UpdateColumns, bytes,
// SpaceBits and answers compared after every batch) to the windowed
// estimator and to the Figure 6 baseline.

// keySource hands out never-seen keys, and walks of them that end in a
// key raising R_t. One fresh key seldom moves the median of sixteen
// copies by itself, so a walk feeds the shadow rough estimator fresh keys
// until one does: the keys before it are fillers the case feeds as plain
// +1 updates, in order, ahead of the raiser. A structure with no rough
// estimator (the baseline) gets a fresh key and no fillers.
type keySource struct {
	n, next uint64
	shadow  *RoughF0 // mirrors the structure's estimator as the case will have fed it
}

func (ks *keySource) fresh() uint64 {
	ks.next++
	return ks.next * 0x9E3779B97F4A7C15 % ks.n
}

// walk returns fillers and a raiser, all fed to the shadow; with feed
// false the raiser is only found, as a key the case will not feed.
func (ks *keySource) walk(t testing.TB, feed bool) (fill []stream.Update, raiser uint64) {
	for try := 0; try < 1<<16; try++ {
		k := ks.fresh()
		switch {
		case ks.shadow == nil:
			return nil, k
		case ks.shadow.CloneInto(nil).Update(k):
			if feed {
				ks.shadow.Update(k)
			}
			return fill, k
		}
		ks.shadow.Update(k)
		fill = append(fill, stream.Update{Index: k, Delta: 1})
	}
	t.Fatal("no run of fresh keys raises the rough estimate")
	return nil, 0
}

// directedCase is one named case: the batches it feeds, built when run.
type directedCase struct {
	name  string
	build func() [][]stream.Update
}

// directedCases lists the cases. known are keys the structure has seen;
// ks.shadow mirrors its rough estimator at the start of each build.
func directedCases(t testing.TB, ks *keySource, known []uint64) []directedCase {
	up := func(k uint64, d int64) stream.Update { return stream.Update{Index: k, Delta: d} }
	cat := func(parts ...[]stream.Update) (us []stream.Update) {
		for _, p := range parts {
			us = append(us, p...)
		}
		return us
	}
	one := func(us ...stream.Update) []stream.Update { return us }
	return []directedCase{
		// Planning before compaction would rank a before b, and touch
		// the rough estimator with c, which per-item Update never sees.
		{"zero-first", func() [][]stream.Update {
			fc, c := ks.walk(t, false)
			fb, b := ks.walk(t, true)
			fa, a := ks.walk(t, true)
			return [][]stream.Update{cat(fc, one(up(c, 0), up(a, 0), up(known[0], 1)), fb, one(up(b, 1)), fa, one(up(a, 1), up(c, 0)))}
		}},
		{"raiser-repeated", func() [][]stream.Update {
			f, r := ks.walk(t, true)
			return [][]stream.Update{cat(one(up(known[0], 1)), f, one(up(r, 1), up(known[1], -1), up(r, 1), up(known[0], 1), up(r, -1)))}
		}},
		{"raisers-back-to-back", func() [][]stream.Update {
			f1, r1 := ks.walk(t, true)
			f2, r2 := ks.walk(t, true)
			for len(f2) > 0 { // back to back: no filler between the two
				f1 = cat(f1, one(up(r1, 1)), f2)
				r1 = r2
				f2, r2 = ks.walk(t, true)
			}
			return [][]stream.Update{cat(one(up(known[0], 1)), f1, one(up(r1, 1), up(r2, 1), up(known[0], 1), up(r1, 1), up(r2, -1)))}
		}},
		// A key the batch nets to zero still reaches the rough estimator.
		{"plus-minus-one-run", func() [][]stream.Update {
			f, r := ks.walk(t, true)
			g := ks.fresh()
			return [][]stream.Update{f, {up(r, 1), up(r, -1)}, {up(known[0], 1), up(g, 1), up(known[0], -1), up(g, -1)}}
		}},
		{"plus-minus-across-a-cut", func() [][]stream.Update {
			g := ks.fresh()
			if ks.shadow != nil {
				ks.shadow.Update(g)
			}
			f, r := ks.walk(t, true)
			return [][]stream.Update{cat(one(up(g, 1), up(known[0], 1)), f, one(up(r, 1), up(g, -1), up(known[0], -1)))}
		}},
		// Sums that leave int64, and one that wraps back into it: the
		// coalesced delta is a residue mod p, never an int64.
		{"huge-deltas", func() [][]stream.Update {
			a, b, c := ks.fresh(), ks.fresh(), known[0]
			return [][]stream.Update{{
				up(a, math.MaxInt64), up(b, math.MinInt64), up(a, math.MaxInt64), up(c, math.MaxInt64),
				up(a, math.MinInt64), up(b, math.MinInt64), up(c, math.MaxInt64), up(c, math.MaxInt64),
			}}
		}},
		{"all-identical", func() [][]stream.Update {
			f, r := ks.walk(t, true)
			same := func(k uint64) []stream.Update {
				us := make([]stream.Update, 300)
				for j := range us {
					us[j] = up(k, oddDeltas[1+j%(len(oddDeltas)-1)])
				}
				return us
			}
			return [][]stream.Update{f, same(r), same(known[0])}
		}},
		{"all-distinct", func() [][]stream.Update {
			us := make([]stream.Update, 700)
			for j := range us {
				us[j] = up(ks.fresh(), 1)
			}
			return [][]stream.Update{us}
		}},
		// One update past the column chunk: two planned pieces, with a
		// known key and a +1/-1 pair on both sides of the split.
		{"chunk-plus-one", func() [][]stream.Update {
			us := make([]stream.Update, 0, columnChunk+1)
			g := ks.fresh()
			for len(us) < columnChunk-2 {
				us = append(us, up(known[len(us)%len(known)], 1), up(ks.fresh(), 1))
			}
			return [][]stream.Update{append(us, up(g, 1), up(known[0], 5), up(g, -1))}
		}},
	}
}

// runDirected feeds every case to a fresh pair cloned from warm — from
// cold for the two raisers in a row, which only a young estimator sees —
// and checks the cases built on a raiser did move R_t inside a batch.
func runDirected(t *testing.T, name string, warm, cold *Estimator, known []uint64, n uint64) {
	ks := &keySource{n: n}
	for _, c := range directedCases(t, ks, known) {
		t.Run(name+"/"+c.name, func(t *testing.T) {
			item, cols := warm.CloneInto(nil), warm.CloneInto(nil)
			if c.name == "raisers-back-to-back" {
				item, cols = cold.CloneInto(nil), cold.CloneInto(nil)
			}
			ks.next = 1 << 32
			if ks.shadow = nil; item.rough != nil {
				ks.shadow = item.rough.CloneInto(nil)
			}
			moved := 0
			for _, us := range c.build() {
				m, _ := feedEstimators(t, item, cols, us, func() int { return len(us) })
				moved += m
			}
			if item.rough != nil && moved == 0 && c.name != "huge-deltas" {
				t.Fatal("no batch moved R_t: the case lost its point")
			}
		})
	}
}

func TestUpdateColumnsDirectedCases(t *testing.T) {
	const n = 1 << 30
	for _, windowed := range []bool{true, false} { // false: the Figure 6 baseline
		warm, cold := estimatorPair(Params{N: n, Eps: 0.25, Windowed: windowed, Window: 1})
		var known []uint64
		for j := uint64(1); j <= 150; j++ {
			known = append(known, j*0x9E3779B97F4A7C15%n)
			warm.Update(known[j-1], 1)
		}
		runDirected(t, fmt.Sprintf("windowed=%v", windowed), warm, cold, known, n)
		if !windowed {
			continue
		}
		// The same cases on a restored state whose running max lags its
		// bitmaps (stale) and whose windows nobody has synced: the first
		// key of the first batch repairs both, on both paths.
		warm.rough.best = 0
		stale, _ := restorePair(t, warm.params, wiretest.MustMarshal(t, warm))
		if !stale.rough.stale || stale.rows.syncedAt != unsynced {
			t.Fatal("the restored estimator is not stale and unsynced")
		}
		runDirected(t, "stale-unsynced", stale, cold, known, n)
	}
}

// TestUpdateColumnsCutsAtFirstOccurrence races the cut mapping. Which
// window an update is applied under shows only when its key lands on a
// row or level that the cut beside it creates, so a one-level window is
// started cold over many key sets, in batches whose repeats make every
// ordinal differ from its position; a cut mapped one update off, or
// distinct keys scanned out of first-occurrence order, loses an update
// in a few of them.
func TestUpdateColumnsCutsAtFirstOccurrence(t *testing.T) {
	const n, trials = 1 << 30, 400
	mk := func() *soloL0 { return newSolo(rand.New(rand.NewSource(7)), n, true, 0) }
	col := make([]uint64, 64)
	for trial := uint64(0); trial < trials; trial++ {
		item, cols := mk(), mk()
		key := func(j uint64) uint64 { return (trial<<20 + j + 1) * 0x9E3779B97F4A7C15 % n }
		for fresh := uint64(0); fresh < 150; {
			// a b a c b c d ... : each new key between repeats of the last two.
			var b core.Batch
			for len(b.Idx) < 9 {
				b.Append(key(fresh), 1)
				if fresh > 0 {
					b.Append(key(fresh-1), 1)
				}
				b.Append(key(fresh), -1)
				fresh++
			}
			for j, k := range b.Idx {
				item.Update(k, b.Delta[j])
			}
			cols.UpdateColumn(&b, col)
			if !bytes.Equal(wiretest.MustMarshal(t, item), wiretest.MustMarshal(t, cols)) {
				t.Fatalf("trial %d: one-level window diverged before fresh key %d", trial, fresh)
			}
		}
	}
}

// TestUpdateColumnsPlanCounters: one add per planned batch to each of
// the two series, n nonzero updates and d distinct keys.
func TestUpdateColumnsPlanCounters(t *testing.T) {
	e, _ := estimatorPair(Params{N: 1 << 20, Eps: 0.25, Windowed: true, Window: 2})
	n0, d0 := rowStats.BatchKeys.Load(), rowStats.KeysHashed.Load()
	core.UpdateBatch(e.UpdateColumns, []stream.Update{{Index: 5, Delta: 1}, {Index: 9, Delta: 0}, {Index: 5, Delta: -1}, {Index: 7, Delta: 2}})
	if n, d := rowStats.BatchKeys.Load()-n0, rowStats.KeysHashed.Load()-d0; n != 3 || d != 2 {
		t.Fatalf("repro_l0_batch_keys_total grew by %d, repro_l0_keys_hashed_total by %d; want 3 and 2", n, d)
	}
}

// TestUpdateColumnsAllocationFree: a warm planned UpdateColumns — plan
// cached or rebuilt, scratch sized — allocates nothing.
func TestUpdateColumnsAllocationFree(t *testing.T) {
	const n = 1 << 26
	e := NewEstimator(rand.New(rand.NewSource(16)), Params{N: n, Eps: 0.1, Windowed: true, Window: RecommendedWindow(8, 0.1)})
	b := core.GetBatch()
	defer core.PutBatch(b)
	rng := rand.New(rand.NewSource(17))
	fill := func() { // a new batch each time: the plan is rebuilt, not served
		b.Reset()
		for j := 0; j < 2048; j++ {
			b.Append(uint64(1+rng.Intn(1<<11))*0x9E3779B97F4A7C15%n, int64(1-2*(j%8/7)))
		}
	}
	for warm := 0; warm < 16; warm++ { // every key seen, R_t at rest, tables grown
		fill()
		e.UpdateColumns(b)
	}
	if allocs := testing.AllocsPerRun(20, func() { fill(); e.UpdateColumns(b) }); allocs != 0 {
		t.Fatalf("warm planned UpdateColumns allocates %.1f times per batch", allocs)
	}
}

// TestEstimatorUnmarshalRejectsUnreducedBin: bins are residues mod p.
func TestEstimatorUnmarshalRejectsUnreducedBin(t *testing.T) {
	e, _ := estimatorPair(Params{N: 1 << 20, Eps: 0.25, Windowed: true, Window: 2})
	e.Update(3, 1)
	for _, poke := range []func(){
		func() { e.singleRow[1] = e.p },
		func() { _, row := e.rows.Oldest(); (*row)[0] = e.p + 5 },
	} {
		good := wiretest.MustMarshal(t, e)
		poke()
		if err := wire.Fill(wiretest.MustMarshal(t, e), NewEstimator(rand.New(rand.NewSource(41)), e.params)); err == nil {
			t.Fatal("accepted a bin at or above p")
		}
		wiretest.Restore(t, e, good)
	}
}
