package engine

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	bounded "repro"
	"repro/internal/hash"
	"repro/internal/obs"
	"repro/internal/wire/wiretest"
)

// everyKind enables all seven structures.
const everyKind = HeavyHitters | L1Estimator | L0Estimator | L1Sampler | SupportSampler | L2HeavyHitters | SyncSketch

// builtRows lists the kinds whose row the current merged view holds.
func builtRows(e *Engine) Structures {
	var built Structures
	if v := e.view.Load(); v != nil && v.gen == e.gen.Load() {
		for i, sk := range v.rows {
			if sk != nil {
				built |= kinds[i].bit
			}
		}
	}
	return built
}

// viewed is the row set a view holds once rows were read: none at one
// shard, where a global read runs on the live structure.
func viewed(shards int, rows Structures) Structures {
	if shards == 1 {
		return 0
	}
	return rows
}

// views is the number of views n read generations start: none at one
// shard.
func views(shards int, n int64) int64 {
	if shards == 1 {
		return 0
	}
	return n
}

// checkOneShardReads asserts the one-shard read contract once reads
// global reads (Sample aside) have returned: no view was started, no
// structure copied, and every read was counted and timed as a merged
// query.
func checkOneShardReads(t *testing.T, e *Engine, reads int64) {
	t.Helper()
	st := e.Stats()
	if st.SnapshotBuilds != 0 || st.SnapshotLatency.Count != 0 {
		t.Errorf("one shard: %d views started, %d rows built", st.SnapshotBuilds, st.SnapshotLatency.Count)
	}
	for row, c := range e.copies {
		if c != nil {
			t.Errorf("one shard: a %s read copied its structure", kinds[row].bit)
		}
	}
	if n := e.met.viewCopiesReused.Load() + e.met.viewCopiesAllocated.Load(); n != 0 {
		t.Errorf("one shard: repro_engine_view_copies_total reads %d", n)
	}
	if st.MergedQueries != reads || st.MergedLatency.Count != reads {
		t.Errorf("one shard: %d merged queries (%d timed), want %d", st.MergedQueries, st.MergedLatency.Count, reads)
	}
}

// TestGlobalReadBuildsOnlyItsKind: with every structure enabled, a
// global read after an ingest clones and merges its own kind and leaves
// every other row unbuilt — counted in bytes: the read allocates less
// than ONE support sampler holds. At one shard it builds no row at all,
// and its answer is that of a twin nobody read.
func TestGlobalReadBuildsOnlyItsKind(t *testing.T) {
	s, _ := fig1Stream(7)
	for _, shards := range []int{1, 4} {
		opts := Options{Shards: shards, Structures: everyKind}
		e, twin := must(New(testCfg, opts)), must(New(testCfg, opts))
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Ingest(s.Updates[:8000]); err != nil {
				t.Fatal(err)
			}
		}
		samplerBytes := uint64(len(must(e.Snapshot(SupportSampler))))
		if got := builtRows(e); got != viewed(shards, SupportSampler) {
			t.Fatalf("shards=%d: Snapshot(SupportSampler) built rows %s", shards, got)
		}
		// Stale the view, apply everything, then charge one L1 read. The
		// twin flushes where the read cut the batches.
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest(s.Updates[8000:12000]); err != nil {
				t.Fatal(err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l1 := must(e.L1())
		runtime.ReadMemStats(&after)
		if got := builtRows(e); got != viewed(shards, L1Estimator) {
			t.Errorf("shards=%d: L1() built rows %s, want its own only", shards, got)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent >= samplerBytes {
			t.Errorf("shards=%d: L1() allocated %d bytes, one support sampler marshals to %d", shards, spent, samplerBytes)
		}
		if shards == 1 {
			checkOneShardReads(t, e, 2)
		}
		if want := must(twin.L1()); l1 != want {
			t.Errorf("shards=%d: L1() = %v, the unread twin says %v", shards, l1, want)
		}
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// globalAnswers asks the three global reads the benchmark's reader
// cycles through, in the given order, and returns them in a fixed one.
func globalAnswers(t *testing.T, e *Engine, order []Structures) (hh []uint64, l1, l0 float64) {
	t.Helper()
	for _, kind := range order {
		switch kind {
		case HeavyHitters:
			hh = must(e.HeavyHitters())
		case L1Estimator:
			l1 = must(e.L1())
		case L0Estimator:
			l0 = must(e.L0())
		}
	}
	return hh, l1, l0
}

// TestViewRowsShareOneGeneration: three kinds asked at one generation
// start ONE view (one flush, SnapshotBuilds == 1) and each adds its row
// beside the rows already there, which are published again as they are,
// not rebuilt; after the next Ingest the first read starts over from an
// empty row set, and every answer is the one a twin engine that was
// never queried in between gives. At one shard no row is ever built and
// every read is still a timed merged query.
func TestViewRowsShareOneGeneration(t *testing.T) {
	s, _ := fig1Stream(7)
	order := []Structures{HeavyHitters, L1Estimator, L0Estimator}
	for _, shards := range []int{1, 4} {
		opts := Options{Shards: shards, Structures: HeavyHitters | L1Estimator | L0Estimator | SupportSampler}
		e, twin := must(New(testCfg, opts)), must(New(testCfg, opts))
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Ingest(s.Updates[:30000]); err != nil {
				t.Fatal(err)
			}
		}
		var built Structures
		var hhRow bounded.Sketch
		for _, kind := range order {
			globalAnswers(t, e, []Structures{kind})
			built |= kind
			if got := builtRows(e); got != viewed(shards, built) {
				t.Fatalf("shards=%d: rows built after %s: %s, want %s", shards, kind, got, viewed(shards, built))
			}
			if shards == 1 {
				continue
			}
			row, _ := HeavyHitters.row()
			if kind == HeavyHitters {
				hhRow = e.view.Load().rows[row]
			} else if e.view.Load().rows[row] != hhRow {
				t.Fatalf("shards=%d: reading %s rebuilt the heavy hitters row", shards, kind)
			}
		}
		st := e.Stats()
		if st.SnapshotBuilds != views(shards, 1) {
			t.Fatalf("shards=%d: SnapshotBuilds = %d after three kinds at one generation, want %d", shards, st.SnapshotBuilds, views(shards, 1))
		}
		if shards == 1 {
			checkOneShardReads(t, e, 3)
		} else if st.SnapshotLatency.Count != 3 || st.MergedQueries != 3 {
			t.Errorf("shards=%d: %d row builds timed over %d merged queries, want 3 and 3", shards, st.SnapshotLatency.Count, st.MergedQueries)
		}
		// A warm row answers again without building anything.
		globalAnswers(t, e, order)
		if n := e.Stats().SnapshotBuilds; n != views(shards, 1) {
			t.Fatalf("shards=%d: warm reads moved SnapshotBuilds to %d", shards, n)
		}

		for _, eng := range []*Engine{e, twin} {
			if err := eng.Ingest(s.Updates[30000:]); err != nil {
				t.Fatal(err)
			}
		}
		if got := builtRows(e); got != 0 {
			t.Fatalf("shards=%d: rows %s still current after an Ingest", shards, got)
		}
		l1 := must(e.L1())
		if got := builtRows(e); got != viewed(shards, L1Estimator) {
			t.Fatalf("shards=%d: first read of the next generation holds rows %s", shards, got)
		}
		hh, _, l0 := globalAnswers(t, e, order)
		wantHH, wantL1, wantL0 := globalAnswers(t, twin, order)
		if !reflect.DeepEqual(hh, wantHH) || l1 != wantL1 || l0 != wantL0 {
			t.Fatalf("shards=%d: answers (%v, %v, %v); a twin never read in between says (%v, %v, %v)",
				shards, hh, l1, l0, wantHH, wantL1, wantL0)
		}
		if n := e.Stats().SnapshotBuilds; n != views(shards, 2) {
			t.Fatalf("shards=%d: SnapshotBuilds = %d after two generations were read, want %d", shards, n, views(shards, 2))
		}
		if shards == 1 {
			checkOneShardReads(t, e, 10)
		}
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGlobalReadsRaceWithIngest: four readers ask different kinds in
// shuffled orders while a producer ingests — rows of one generation get
// published by whichever reader needs them first (run under -race). At
// quiesce the heavy hitters are the single writer's, every answer is
// that of a twin engine fed the same calls and never read, and so is
// the merged state, byte for byte, of the kinds whose state does not
// depend on where a reader's flush cut the batches (the heavy hitters'
// candidate refresh and the L1 estimator's thinning draws run once per
// batch).
func TestGlobalReadsRaceWithIngest(t *testing.T) {
	s, _ := fig1Stream(7)
	single := must(bounded.NewHeavyHitters(testCfg))
	single.UpdateBatch(s.Updates)
	const structures = HeavyHitters | L1Estimator | L0Estimator | SupportSampler | SyncSketch
	order := []Structures{HeavyHitters, L1Estimator, L0Estimator}

	for _, shards := range []int{1, 2, 4, 8} {
		opts := Options{Shards: shards, BatchSize: 512, Structures: structures}
		e, twin := must(New(testCfg, opts)), must(New(testCfg, opts))
		reads := make([]func() error, 4)
		for q := range reads {
			rng := rand.New(rand.NewSource(int64(q)))
			mine := slices.Clone(order)
			reads[q] = func() error {
				rng.Shuffle(len(mine), func(a, b int) { mine[a], mine[b] = mine[b], mine[a] })
				for _, kind := range mine {
					var err error
					switch kind {
					case HeavyHitters:
						_, err = e.HeavyHitters()
					case L1Estimator:
						_, err = e.L1()
					case L0Estimator:
						_, err = e.L0()
					}
					if err != nil {
						return err
					}
				}
				return nil
			}
		}
		stop := wiretest.Readers(t, reads...)
		for off := 0; off < len(s.Updates); off += 777 {
			chunk := s.Updates[off:min(off+777, len(s.Updates))]
			if err := e.Ingest(chunk); err != nil {
				t.Fatal(err)
			}
			if err := twin.Ingest(chunk); err != nil {
				t.Fatal(err)
			}
		}
		stop()

		hh, l1, l0 := globalAnswers(t, e, order)
		wantHH, wantL1, wantL0 := globalAnswers(t, twin, order)
		if !reflect.DeepEqual(hh, single.HeavyHitters()) {
			t.Fatalf("shards=%d: heavy hitters %v, single writer %v", shards, hh, single.HeavyHitters())
		}
		if !reflect.DeepEqual(hh, wantHH) || l1 != wantL1 || l0 != wantL0 {
			t.Fatalf("shards=%d: answers (%v, %v, %v), unread twin (%v, %v, %v)", shards, hh, l1, l0, wantHH, wantL1, wantL0)
		}
		for _, kind := range (L0Estimator | SupportSampler | SyncSketch).Bits() {
			if !bytes.Equal(must(e.Snapshot(kind)), must(twin.Snapshot(kind))) {
				t.Errorf("shards=%d: merged %s differs from the unread twin's", shards, kind)
			}
		}
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// series reads one series off r's Prometheus text: 0 when it is absent.
func series(t *testing.T, r *obs.Registry, name string) int64 {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if got, v, ok := strings.Cut(line, " "); ok && got == name {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// sampledCfg has S = 1024: past 2048 units a shard's heavy hitters
// sample.
var sampledCfg = bounded.Config{N: 1 << 16, Eps: 0.25, Alpha: 1, Seed: 9}

// doublingChunks cuts us into chunks of 256, 512, 1024, ... updates:
// fed one chunk per Ingest, a shard passes 2S and F0 keeps rising, so
// the L0 and support windows keep moving.
func doublingChunks(us []bounded.Update) [][]bounded.Update {
	var chunks [][]bounded.Update
	for off, n := 0, 256; off < len(us); off, n = off+n, 2*n {
		chunks = append(chunks, us[off:min(off+n, len(us))])
	}
	return chunks
}

// TestRecycledViewsMatchFreshClones: every kind, read after every ingest
// at two and three shards, is answered from a row rebuilt into the
// storage of its last build, and that row marshals to the bytes of the
// row a twin builds from fresh clones (its copies are dropped before
// every read) — at rate 1, past 2S where the heavy hitters sample, and
// across moves of the L0 and support windows. Afterwards the two
// engines' shard state is equal byte for byte, and every read after a
// kind's first was counted as reused. (One shard copies nothing:
// TestOneShardReadsLeaveStateAlone.)
func TestRecycledViewsMatchFreshClones(t *testing.T) {
	s, _ := fig1Stream(11)
	asked := everyKind.Bits()
	for _, shards := range []int{2, 3} {
		opts := Options{Shards: shards, BatchSize: 512, Structures: everyKind}
		e, twin := must(New(sampledCfg, opts)), must(New(sampledCfg, opts))
		reg := obs.NewRegistry()
		e.ExposeMetrics(reg, "e")
		moves := func() int64 {
			return series(t, obs.Default, "repro_l0_window_events_total") + series(t, obs.Default, "repro_support_window_events_total")
		}
		var movedAt int64
		rounds := 0
		for _, chunk := range doublingChunks(s.Updates) {
			for _, eng := range []*Engine{e, twin} {
				if err := eng.Ingest(chunk); err != nil {
					t.Fatal(err)
				}
			}
			for _, kind := range asked {
				twin.copies = [len(kinds)][]bounded.Sketch{}
				if !bytes.Equal(must(e.Snapshot(kind)), must(twin.Snapshot(kind))) {
					t.Fatalf("shards=%d round %d: %s from recycled storage differs from fresh clones", shards, rounds, kind)
				}
			}
			if rounds++; rounds == 1 {
				movedAt = moves()
			}
		}
		if p := e.view.Load().rows[0].(*bounded.HeavyHitters).SampleExponent(); p < 1 {
			t.Fatalf("shards=%d: the heavy hitters ended at exponent %d, never sampled", shards, p)
		}
		if moves() == movedAt {
			t.Fatalf("shards=%d: no L0 or support window moved after the first read", shards)
		}
		if !bytes.Equal(must(e.SnapshotPartitioned()), must(twin.SnapshotPartitioned())) {
			t.Fatalf("shards=%d: shard state differs from the twin whose reads cloned", shards)
		}
		copies := int64(len(asked) * shards)
		if reused, allocated := series(t, reg, `repro_engine_view_copies_total{instance="e",storage="reused"}`),
			series(t, reg, `repro_engine_view_copies_total{instance="e",storage="allocated"}`); reused != int64(rounds-1)*copies || allocated != copies {
			t.Fatalf("shards=%d: %d copies reused and %d allocated over %d rounds of %d kinds, want %d and %d",
				shards, reused, allocated, rounds, len(asked), int64(rounds-1)*copies, copies)
		}
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// globalReads asks every global read that draws nothing — each kind's
// query (all but Sample) and each kind's Snapshot — and returns the
// answers.
func globalReads(t *testing.T, e *Engine) []any {
	t.Helper()
	answers := []any{
		must(e.HeavyHitters()), must(e.L2HeavyHitters()), must(e.L1()), must(e.L0()),
		must(e.Support()), must(must(e.SyncSketch()).MarshalBinary()),
	}
	for _, kind := range everyKind.Bits() {
		answers = append(answers, must(e.Snapshot(kind)))
	}
	return answers
}

// TestOneShardReadsLeaveStateAlone: a one-shard engine answers every
// global read but Sample on its live structures, so every such read and
// every kind's Snapshot, asked after every Ingest — at rate 1, past 2S
// where the heavy hitters sample, and across moves of the L0 and support
// windows — leaves the shard's state byte for byte that of a twin nobody
// read. The twin flushes where the reads cut the batches (a read hands
// the pending run to the shard first, and a batch cut elsewhere thins
// differently). Nothing was copied, and every read was a timed merged
// query.
func TestOneShardReadsLeaveStateAlone(t *testing.T) {
	s, _ := fig1Stream(11)
	opts := Options{Shards: 1, BatchSize: 512, Structures: everyKind}
	e, twin := must(New(sampledCfg, opts)), must(New(sampledCfg, opts))
	var merged int64
	for _, chunk := range doublingChunks(s.Updates) {
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Ingest(chunk); err != nil {
				t.Fatal(err)
			}
		}
		merged += int64(len(globalReads(t, e)) - 1) // Support is a routed read
		if err := twin.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var p int
	e.eachShard(func(int) { p = e.sets[0][0].(*bounded.HeavyHitters).SampleExponent() })
	if p < 1 {
		t.Fatalf("the heavy hitters ended at exponent %d, never sampled", p)
	}
	checkOneShardReads(t, e, merged)
	if !bytes.Equal(must(e.SnapshotPartitioned()), must(twin.SnapshotPartitioned())) {
		t.Fatal("reads moved the shard's state away from the unread twin's")
	}
	if got, want := globalReads(t, e), globalReads(t, twin); !reflect.DeepEqual(got, want) {
		t.Fatal("answers differ from the unread twin's")
	}
	for _, eng := range []*Engine{e, twin} {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// bucketSigns counts fused bucket/sign hash dispatches, process-wide.
func bucketSigns() int64 {
	s := hash.KernelDispatchStats()
	return s.BucketSignsScalar + s.BucketSignsVector
}

// TestHeavyHittersReadHashesNothing: the candidate tracker keeps the
// bucket and sign columns each candidate was admitted with, so once the
// ingest is flushed a global heavy-hitters read hashes nothing — on the
// live shard at S = 1, and at S = 2 through a view row rebuilt by
// CloneInto and a merge that re-ranks the union off both slabs.
func TestHeavyHittersReadHashesNothing(t *testing.T) {
	s, _ := fig1Stream(42)
	for _, shards := range []int{1, 2} {
		e := must(New(testCfg, Options{Shards: shards, Structures: HeavyHitters}))
		for off := 0; off < len(s.Updates); off += 7919 {
			if err := e.Ingest(s.Updates[off:min(off+7919, len(s.Updates))]); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			before := bucketSigns()
			hh := must(e.HeavyHitters())
			if d := bucketSigns() - before; d != 0 {
				t.Fatalf("shards=%d: a heavy-hitters read after %d updates made %d bucket/sign hash dispatches, want 0", shards, off, d)
			}
			if len(hh) == 0 {
				t.Fatalf("shards=%d: no heavy hitters after %d updates", shards, off)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecycledRowsRaceWithIngest: two readers of different kinds — the
// heavy hitters and their snapshot, the L0 estimate and its snapshot —
// with a producer ingesting between their reads, so each rebuild
// overwrites its row's last generation while the other reader may be
// answering from its own (run under -race). At quiesce the answers and
// the L0 bytes are those of a twin nobody read.
func TestRecycledRowsRaceWithIngest(t *testing.T) {
	s, _ := fig1Stream(5)
	for _, shards := range []int{1, 4} {
		opts := Options{Shards: shards, BatchSize: 512, Structures: HeavyHitters | L0Estimator}
		e, twin := must(New(testCfg, opts)), must(New(testCfg, opts))
		stop := wiretest.Readers(t,
			func() error { _, err := e.HeavyHitters(); return err },
			func() error { _, err := e.Snapshot(HeavyHitters); return err },
			func() error { _, err := e.L0(); return err },
			func() error { _, err := e.Snapshot(L0Estimator); return err },
		)
		for off := 0; off < len(s.Updates); off += 501 {
			chunk := s.Updates[off:min(off+501, len(s.Updates))]
			for _, eng := range []*Engine{e, twin} {
				if err := eng.Ingest(chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
		stop()
		hh, _, l0 := globalAnswers(t, e, []Structures{HeavyHitters, L0Estimator})
		wantHH, _, wantL0 := globalAnswers(t, twin, []Structures{HeavyHitters, L0Estimator})
		if !reflect.DeepEqual(hh, wantHH) || l0 != wantL0 {
			t.Fatalf("shards=%d: answers (%v, %v), unread twin (%v, %v)", shards, hh, l0, wantHH, wantL0)
		}
		if !bytes.Equal(must(e.Snapshot(L0Estimator)), must(twin.Snapshot(L0Estimator))) {
			t.Fatalf("shards=%d: merged L0 differs from the unread twin's", shards)
		}
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
