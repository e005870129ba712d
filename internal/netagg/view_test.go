package netagg

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// sampledConfig puts CSSS's S at 1024, so a site leaves rate 1 after
// 2048 unit updates.
var sampledConfig = bounded.Config{N: 1 << 16, Eps: 0.2, Alpha: 1.5, Seed: 7}

// hhBlobAt marshals a heavy-hitters sketch built from cfg over updates
// and reports its sampling exponent.
func hhBlobAt(t testing.TB, cfg bounded.Config, updates []bounded.Update) ([]byte, int) {
	t.Helper()
	hh, err := bounded.NewHeavyHitters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hh.UpdateBatch(updates)
	b, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b, hh.SampleExponent()
}

// commitHH commits one heavy-hitters blob as agent id's snapshot seq
// and returns the exponent its ACK would carry.
func commitHH(t testing.TB, agg *Aggregator, id string, seq uint64, blob []byte) int {
	t.Helper()
	snap := &netproto.Snapshot{Seq: seq, Gen: seq, Sketches: []wire.Blob{{Bit: uint32(engine.HeavyHitters), Payload: blob}}}
	exp, err := agg.applySnapshot(id, snap)
	if err != nil {
		t.Fatal(err)
	}
	return int(exp)
}

// askHH asks the aggregator a heavy-hitters query, which rebuilds the
// heavy-hitters view if a commit left it stale, or answers over the
// agents' candidates if commits only shifted its table.
func askHH(t testing.TB, agg *Aggregator) {
	t.Helper()
	if ans := agg.answer(&netproto.Query{Op: netproto.OpHeavyHitters}); ans.Err != "" {
		t.Fatal(ans.Err)
	}
}

// materializedView returns the heavy-hitters view whole: refreshed as
// a query refreshes it and, when commits only shifted its table, its
// candidates re-ranked against the agents' (HeavyHitters.Rerank), to
// the bytes a rebuild would write. Only a read of the view's own
// tracker — its encoding — needs that; no query does, so the
// aggregator never re-ranks and this is not counted as a refresh. The
// caller holds qmu.
func (a *Aggregator) materializedView() (*bounded.HeavyHitters, error) {
	sk, err := a.mergedView(engine.HeavyHitters)
	if err != nil || sk == nil {
		return nil, err
	}
	hh := sk.(*bounded.HeavyHitters)
	if a.shifted {
		if err := hh.Rerank(heavies(a.stored(engine.HeavyHitters))); err != nil {
			return nil, err
		}
		a.shifted = false
	}
	return hh, nil
}

// viewBytes returns the encoding of the merged heavy-hitters view,
// materialized (materializedView).
func viewBytes(t testing.TB, agg *Aggregator) []byte {
	t.Helper()
	agg.qmu.Lock()
	defer agg.qmu.Unlock()
	hh, err := agg.materializedView()
	if err != nil {
		t.Fatal(err)
	}
	b, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// heldViewBytes returns the encoding of the heavy-hitters view as the
// aggregator holds it, refreshing nothing: a query that leaves it
// unchanged wrote neither its table nor its tracker.
func heldViewBytes(t testing.TB, agg *Aggregator) []byte {
	t.Helper()
	agg.qmu.Lock()
	defer agg.qmu.Unlock()
	b, err := agg.view[engine.HeavyHitters].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// mergeAllBytes is the in-process reading of the same blobs: decode
// each and merge them all with bounded.MergeAll, in order.
func mergeAllBytes(t *testing.T, blobs [][]byte) []byte {
	t.Helper()
	parts := make([]bounded.Sketch, len(blobs))
	for j, blob := range blobs {
		sk, err := bounded.UnmarshalSketch(blob)
		if err != nil {
			t.Fatal(err)
		}
		parts[j] = sk
	}
	acc, err := bounded.MergeAll(nil, parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergedViewMatchesMergeAll: the aggregator's merged view is byte
// for byte an in-process bounded.MergeAll over the same blobs in sorted
// agent order — at rate 1, and in a sampled round in which every agent
// synced (fleet-sync's shape). The view's byte digests were last
// re-pinned at wire format v4 (count columns patched, candidate ids a
// count column); the re-pin before it came when the view began to be
// built by MergeAll: its tables are the pairwise chain's, and its
// candidates are re-ranked once over the union and laid out by id,
// where the chain re-ranked after every agent and laid them out in
// offer order. At rate 1 the digest of what the
// view answers was recorded by running this body in the tree before
// wire format v2, and neither re-pin since moved it. The sampled view's
// answers moved with each wire re-pin: Merge thins a restored sketch's
// copy under a generator seeded from the sketch's own state bytes
// (wire.Seed), and those bytes changed; they stay inside the ε band
// below, and ROADMAP 4a's rng on the wire ends the dependence.
//
// Documented, not hidden: a sampled rebuild over an agent that did NOT
// re-sync since the last rebuild can differ from the parent's. The
// parent cloned every stored sketch on every build, thinned or not, so
// each build cost each stored rng one word; Merge takes that word only
// when it thins. Below, site-1 was the coarsest sketch of the first
// build (not thinned) and is thinned in the second: it gives its first
// word where the parent's gave its second. The answers stay inside the
// ε band; ROADMAP 4a's pure Clone removes the clause.
func TestMergedViewMatchesMergeAll(t *testing.T) {
	const (
		rate1             = "4dcd6dea173e988fcbde7d037f4f1f1300463f563b1c92303ba8bf3ba51c1388"
		allSynced         = "b16103ce40109537f7050c77fe1c533e3a8b1bcdc82e14c578679ebe909af474"
		parentOneResynced = "9f49bd0c147771d71e8058edf0a0eca0a97ce4f3b770cb2832a9f9d997887e56"
	)
	for _, tc := range []struct {
		name    string
		cfg     bounded.Config
		masses  []int // per site, in sorted id order
		exps    []int
		bytes   string
		answers string
	}{
		{"rate1", testConfig, []int{3000, 12000, 3000, 6000}, []int{0, 0, 0, 0}, rate1,
			"426f9197c9056c83d09f3552c95d80525f447f4feb42edc674bb511a3369feca"},
		{"sampled", sampledConfig, []int{3000, 12000, 3000, 6000}, []int{1, 3, 1, 2}, allSynced, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := NewAggregator(AggregatorOptions{Config: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			blobs := make([][]byte, len(tc.masses))
			truth := map[uint64]int64{}
			var l1 int64
			feed := func(site int, seed int64, mass int) (p int) {
				us := testStream(60_000, seed)[:mass]
				blobs[site], p = hhBlobAt(t, tc.cfg, us)
				for _, u := range us {
					truth[u.Index] += u.Delta
					l1 += u.Delta
				}
				return p
			}
			// Committed out of id order: the view merges in sorted order.
			for _, site := range []int{2, 0, 3, 1} {
				if p := feed(site, int64(site+1), tc.masses[site]); p != tc.exps[site] {
					t.Fatalf("site-%d: exponent %d, want %d", site, p, tc.exps[site])
				}
				commitHH(t, agg, fmt.Sprintf("site-%d", site), 1, blobs[site])
			}
			view := viewBytes(t, agg)
			if !bytes.Equal(view, mergeAllBytes(t, blobs)) {
				t.Fatal("merged view differs from an in-process MergeAll over the same blobs")
			}
			if got := digest(view); got != tc.bytes {
				t.Fatalf("merged view hashes to %s, recorded %s", got, tc.bytes)
			}
			if got := digest([]byte(blobAnswers(t, view))); tc.answers != "" && got != tc.answers {
				t.Fatalf("merged view answers hash to %s, the parent's to %s", got, tc.answers)
			}
			if tc.name != "sampled" {
				// A rebuild writes into the last view's storage, to its bytes.
				commitHH(t, agg, "site-3", 2, blobs[3])
				if !bytes.Equal(viewBytes(t, agg), view) {
					t.Fatal("a rebuild into the last view's storage differs from the first build")
				}
				return
			}

			// site-0 alone re-syncs, now the coarsest of the four.
			for _, u := range testStream(60_000, 1)[:tc.masses[0]] {
				truth[u.Index] -= u.Delta
				l1 -= u.Delta
			}
			if p := feed(0, 101, 40_000); p != 5 {
				t.Fatalf("re-synced site-0: exponent %d, want 5", p)
			}
			commitHH(t, agg, "site-0", 2, blobs[0])
			view = viewBytes(t, agg)
			if got := digest(view); got == parentOneResynced {
				t.Fatal("the one-agent-resynced rebuild now matches the parent's bytes: the rng-word clause in sketch.go and this test's comment can go")
			}
			hh := agg.view[engine.HeavyHitters].(*bounded.HeavyHitters)
			checked := 0
			for key, f := range truth {
				if float64(f) < tc.cfg.Eps*float64(l1) {
					continue
				}
				checked++
				if est := hh.Estimate(key); math.Abs(est-float64(f)) > tc.cfg.Eps*float64(l1) {
					t.Fatalf("key %d: estimate %v, true %d, outside eps*L1 = %v", key, est, f, tc.cfg.Eps*float64(l1))
				}
			}
			if checked == 0 {
				t.Fatal("no eps-heavy key in the union: the band check checked nothing")
			}
		})
	}
}

// rate1Sites commits n heavy-hitters sites of mass unit updates each,
// every one still at rate 1.
func rate1Sites(t testing.TB, agg *Aggregator, cfg bounded.Config, n, mass int) (blobs [][]byte) {
	t.Helper()
	for site := 0; site < n; site++ {
		blob, p := hhBlobAt(t, cfg, testStream(60_000, int64(site+1))[:mass])
		if p != 0 {
			t.Fatalf("site-%d: exponent %d, want a site still at rate 1", site, p)
		}
		commitHH(t, agg, fmt.Sprintf("site-%d", site), 1, blob)
		blobs = append(blobs, blob)
	}
	return blobs
}

// TestViewBuildsCountGenerations: ViewBuilds counts one refresh per
// commit generation, however many kinds that generation's queries
// refresh. Each round two sites commit heavy hitters and L1, and the
// heavy-hitters query (a rebuild in the first round, an answer over
// the shifted table after), the L1 query (a rebuild) and repeated
// queries of either count one together, so a fleet asking both after
// each round reads one per round.
func TestViewBuildsCountGenerations(t *testing.T) {
	agg, err := NewAggregator(AggregatorOptions{Config: testConfig, Structures: engine.HeavyHitters | engine.L1Estimator})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	const sites, rounds, chunk = 2, 3, 2000
	hhs := make([]*bounded.HeavyHitters, sites)
	l1s := make([]*bounded.L1Estimator, sites)
	for site := range hhs {
		if hhs[site], err = bounded.NewHeavyHitters(testConfig); err != nil {
			t.Fatal(err)
		}
		if l1s[site], err = bounded.NewL1Estimator(testConfig); err != nil {
			t.Fatal(err)
		}
	}
	ask := func(op netproto.QueryOp) {
		t.Helper()
		if ans := agg.answer(&netproto.Query{Op: op}); ans.Err != "" {
			t.Fatal(ans.Err)
		}
	}
	for round := 1; round <= rounds; round++ {
		before := agg.Stats()
		for site := range hhs {
			updates := testStream(rounds*chunk, int64(site+1))[(round-1)*chunk : round*chunk]
			hhs[site].UpdateBatch(updates)
			l1s[site].UpdateBatch(updates)
			var blobs []wire.Blob
			for bit, sk := range map[engine.Structures]bounded.Sketch{engine.HeavyHitters: hhs[site], engine.L1Estimator: l1s[site]} {
				b, err := sk.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				blobs = append(blobs, wire.Blob{Bit: uint32(bit), Payload: b})
			}
			slices.SortFunc(blobs, func(a, b wire.Blob) int { return cmp.Compare(a.Bit, b.Bit) })
			snap := &netproto.Snapshot{Seq: uint64(round), Gen: uint64(round), Sketches: blobs}
			if _, err := agg.applySnapshot(fmt.Sprintf("site-%d", site), snap); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range []netproto.QueryOp{netproto.OpHeavyHitters, netproto.OpL1, netproto.OpHeavyHitters, netproto.OpL1} {
			ask(op)
		}
		st := agg.Stats()
		if got := st.ViewBuilds - before.ViewBuilds; got != 1 {
			t.Fatalf("round %d: %d view builds for one commit generation, want 1", round, got)
		}
		if round > 1 && st.ViewShifts-before.ViewShifts != sites {
			t.Fatalf("round %d: %d of %d commits shifted: the answer over a shifted table is not what it tests", round, st.ViewShifts-before.ViewShifts, sites)
		}
	}
}

// TestViewRebuildAllocatesOneState: a rate-1 rebuild over four agents
// writes ONE heavy-hitters state — the union, into the previous view's
// storage; the agents' sketches are read where they are stored — and
// the candidate re-rank's scratch is pooled, so it allocates under
// 0.01 times what cloning one stored sketch allocates, held under
// 0.074x (a fresh accumulator per build would add 1x, a clone of every
// agent 4x). So do the re-rank of a view a commit shifted, and the
// heavy-hitters answer taken over the agents' candidates instead.
func TestViewRebuildAllocatesOneState(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose, so there each merge may allocate its hash-column batch.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				t.Skip("sync.Pool drops Puts under -race")
			}
		}
	}
	agg, err := NewAggregator(AggregatorOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	blobs := rate1Sites(t, agg, testConfig, 4, 10_000)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	refresh := func() uint64 {
		return allocated(func() {
			agg.qmu.Lock()
			defer agg.qmu.Unlock()
			if _, err := agg.materializedView(); err != nil {
				t.Error(err)
			}
		})
	}
	stored := agg.agents["site-0"].sketches[engine.HeavyHitters]
	state := allocated(func() { stored.Clone() })
	// The collector is off from here on: a cycle between the warm-up and
	// the measured rebuild can empty the pools the re-rank's scratch and
	// the batch live in, and their refill would be charged to the rebuild.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	askHH(t, agg) // the batch pool and the query scratch reach their steady size
	commitHH(t, agg, "site-3", 2, blobs[3])
	rerank := refresh()
	agg.qmu.Lock()
	agg.stale |= engine.HeavyHitters // as a commit the view's table refused leaves it
	agg.qmu.Unlock()
	rebuild := refresh()
	if st := agg.Stats(); st.ViewBuilds != 2 || st.ViewShifts != 1 {
		t.Fatalf("%d view builds and %d shifts, want 2 (the re-rank is no query's) and 1 (site-3's resync)", st.ViewBuilds, st.ViewShifts)
	}
	commitHH(t, agg, "site-3", 3, blobs[3])
	held := heldViewBytes(t, agg)
	answer := allocated(func() { askHH(t, agg) })
	if st := agg.Stats(); st.ViewBuilds != 3 || st.ViewShifts != 2 {
		t.Fatalf("%d view builds and %d shifts, want 3 and 2", st.ViewBuilds, st.ViewShifts)
	}
	if !bytes.Equal(heldViewBytes(t, agg), held) {
		t.Fatal("the answer over a shifted table wrote the view")
	}
	for _, m := range []struct {
		what  string
		bytes uint64
	}{{"rebuild", rebuild}, {"re-rank", rerank}, {"answer", answer}} {
		t.Logf("%s allocated %d bytes, %.2fx one %d-byte state", m.what, m.bytes, float64(m.bytes)/float64(state), state)
		if ceiling := state * 74 / 1000; m.bytes > ceiling {
			t.Fatalf("a %s over 4 agents allocated %d bytes, %.3fx one %d-byte state (ceiling 0.074x)", m.what, m.bytes, float64(m.bytes)/float64(state), state)
		}
	}
}

// TestViewExponentReported: four sites each below 2S report exponent 0
// while their union is past it — the crossing round, whose rebuild
// pays alignment halvings until the sites adopt the exponent their
// ACKs carry (TestAlignedFleetRebuildHalvesNothing) — and the
// aggregator says so: ViewSampleExponent 1, and on /metrics the
// exponent gauge and the halvings counter (two: the accumulator's own
// when the third site carries it past 2S, then the fourth site's copy
// thinned to meet it).
func TestViewExponentReported(t *testing.T) {
	agg, err := NewAggregator(AggregatorOptions{Config: sampledConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	reg := obs.NewRegistry()
	agg.ExposeMetrics(reg, "t")
	rate1Sites(t, agg, sampledConfig, 4, 700) // 2800 > 2S = 2048 in the union
	if p := agg.Stats().ViewSampleExponent; p != 0 {
		t.Fatalf("ViewSampleExponent %d before any build, want 0", p)
	}
	askHH(t, agg)
	if p := agg.Stats().ViewSampleExponent; p != 1 {
		t.Fatalf("ViewSampleExponent %d, want 1: four rate-1 sites whose union passed 2S", p)
	}
	var out bytes.Buffer
	reg.WriteMetrics(&out)
	for _, want := range []string{
		`repro_netagg_view_csss_exponent{instance="t"} 1`,
		`repro_netagg_view_align_halvings_total{instance="t"} 2`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// endsInTracker reports whether b ends in a tracker of n candidates:
// the u32 count n, an n-entry count column of ids that ends where the n
// estimate words begin.
func endsInTracker(b []byte, n int) bool {
	ests := len(b) - 8*n
	for at := ests - 4 - wire.MinColumnLen(n); at >= max(0, ests-4-(1+4+12*n)); at-- {
		if binary.LittleEndian.Uint32(b[at:]) != uint32(n) {
			continue
		}
		if wire.Fill(b[at+4:ests], ids(n)) == nil {
			return true
		}
	}
	return false
}

// ids reads an n-entry count column.
type ids int

func (n ids) Fill(r *wire.Reader) { r.Counts(make([]uint64, n)) }

// TestViewCandidatesReported: a build over four agents reports the
// union of their candidates and how many the view kept — the tracker's
// limit, 2 · 4⌈1/ε⌉, of a union larger than it — in AggregatorStats
// and on /metrics, and the view's tracker holds that many: its encoding
// ends in the kept count, a count column of that many ids and an
// estimate word per candidate. After a commit a
// shift folds in, the query's answer over the agents' candidates
// reports, under their own labels, those that crossed the threshold and
// those it returned, and the build's two stand.
func TestViewCandidatesReported(t *testing.T) {
	agg, err := NewAggregator(AggregatorOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	reg := obs.NewRegistry()
	agg.ExposeMetrics(reg, "t")
	blobs := rate1Sites(t, agg, testConfig, 4, 10_000)
	askHH(t, agg)
	st := agg.Stats()
	limit := 2 * 4 * int(math.Ceil(1/testConfig.Eps))
	if st.ViewCandidates <= limit || st.ViewKept != min(limit, st.ViewCandidates) {
		t.Fatalf("view kept %d of a union of %d candidates, want min(limit %d, union) of a union past it", st.ViewKept, st.ViewCandidates, limit)
	}
	if !endsInTracker(viewBytes(t, agg), st.ViewKept) {
		t.Fatalf("the view's tracker does not hold the %d candidates reported kept", st.ViewKept)
	}
	var out bytes.Buffer
	reg.WriteMetrics(&out)
	for _, want := range []string{
		fmt.Sprintf(`repro_netagg_view_candidates{instance="t",set="union"} %d`, st.ViewCandidates),
		fmt.Sprintf(`repro_netagg_view_candidates{instance="t",set="kept"} %d`, st.ViewKept),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	commitHH(t, agg, "site-3", 2, blobs[3])
	ans := agg.answer(&netproto.Query{Op: netproto.OpHeavyHitters})
	if ans.Err != "" {
		t.Fatal(ans.Err)
	}
	over := agg.Stats()
	if over.ViewShifts != 1 || over.AnswerReturned != len(ans.Keys) || over.AnswerReturned == 0 || over.AnswerCrossing != over.AnswerReturned {
		t.Fatalf("answer over %d shifted commits reports %d of %d crossing candidates returned for %d keys answered", over.ViewShifts, over.AnswerReturned, over.AnswerCrossing, len(ans.Keys))
	}
	if over.ViewCandidates != st.ViewCandidates || over.ViewKept != st.ViewKept {
		t.Fatalf("after the answer the view reports %d of %d candidates kept, its build %d of %d", over.ViewKept, over.ViewCandidates, st.ViewKept, st.ViewCandidates)
	}
	out.Reset()
	reg.WriteMetrics(&out)
	for _, want := range []string{
		fmt.Sprintf(`repro_netagg_view_candidates{instance="t",set="union"} %d`, st.ViewCandidates),
		fmt.Sprintf(`repro_netagg_view_candidates{instance="t",set="kept"} %d`, st.ViewKept),
		fmt.Sprintf(`repro_netagg_view_candidates{instance="t",set="crossing"} %d`, over.AnswerCrossing),
		fmt.Sprintf(`repro_netagg_view_candidates{instance="t",set="answered"} %d`, over.AnswerReturned),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestViewReadersRaceWithCommitsAndCheckpoints: a view build reads the
// stored sketches where they are (it used to clone them first) while
// the checkpoint loop marshals the same sketches and commits replace
// them — for the race detector, all three shipped kinds, over sampled
// agents so that builds thin copies and take rng words from the stored
// side.
func TestViewReadersRaceWithCommitsAndCheckpoints(t *testing.T) {
	agg, err := NewAggregator(AggregatorOptions{
		Config: sampledConfig, Structures: testStructures,
		CheckpointDir: t.TempDir(), CheckpointEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	commit := func(site int, seq uint64, blobs []wire.Blob) {
		if _, err := agg.applySnapshot(fmt.Sprintf("site-%d", site), &netproto.Snapshot{Seq: seq, Gen: seq, Sketches: blobs}); err != nil {
			t.Fatal(err)
		}
	}
	var blobs [][]wire.Blob
	for site, mass := range []int{3000, 12000, 3000, 6000} {
		blobs = append(blobs, siteBlobsAt(t, sampledConfig, testStream(60_000, int64(site+1))[:mass]))
		commit(site, 1, blobs[site])
	}
	length := 2 * time.Second
	if testing.Short() {
		length = 200 * time.Millisecond
	}
	read := func() error {
		for _, op := range []netproto.QueryOp{netproto.OpHeavyHitters, netproto.OpEstimate, netproto.OpL1, netproto.OpSupport} {
			if ans := agg.answer(&netproto.Query{Op: op, Keys: []uint64{1, 2, 3}}); ans.Err != "" {
				return errors.New(ans.Err)
			}
		}
		return nil
	}
	stop := time.After(length)
	stopReaders := wiretest.Readers(t, read, read)
	for seq := uint64(2); ; seq++ {
		site := int(seq) % len(blobs)
		commit(site, seq, blobs[(site+int(seq/4))%len(blobs)])
		select {
		case <-stop:
			stopReaders()
			if st := agg.Stats(); st.ViewBuilds < 2 || st.CheckpointsWritten < 2 {
				t.Fatalf("%d view builds and %d checkpoints in %v: nothing raced", st.ViewBuilds, st.CheckpointsWritten, length)
			}
			return
		default:
		}
	}
}

// fleetRun drives in-process heavy-hitters sites through rounds of
// commits to agg, each site fed its own chunk of a stream per round and
// thinned after each commit to the exponent its ACK carried, as an
// agent is. A site idle in a round (idle, when not nil) ingests and
// commits nothing in it. After each commit, after(round, site, blob)
// runs. opts build the sites' structures. It returns each site's last
// committed blob.
func fleetRun(t *testing.T, agg *Aggregator, cfg bounded.Config, sites, rounds, chunk int, idle func(round, site int) bool, after func(round, site int, blob []byte), opts ...bounded.Option) [][]byte {
	t.Helper()
	live := make([]*bounded.HeavyHitters, sites)
	fed := make([]int, sites)
	blobs := make([][]byte, sites)
	for site := range live {
		hh, err := bounded.NewHeavyHitters(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		live[site] = hh
	}
	for r := 0; r < rounds; r++ {
		for site, hh := range live {
			if idle != nil && idle(r, site) {
				continue
			}
			hh.UpdateBatch(testStream(60_000, int64(site+1))[fed[site] : fed[site]+chunk])
			fed[site] += chunk
			hh.SpaceBits() // a space report refreshes the table's high-water mark, which the wire carries
			blob, err := hh.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			p := commitHH(t, agg, fmt.Sprintf("site-%d", site), uint64(r+1), blob)
			blobs[site] = blob
			if after != nil {
				after(r, site, blob)
			}
			if err := hh.RaiseSampleExponent(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return blobs
}

// TestMaintainedViewMatchesMergeAll: after every commit the view's
// bytes equal an in-process bounded.MergeAll over the committed blobs,
// whether the commit was folded in by a shift of the view's table (the
// first commit of sites 1–3 and every commit of an aligned round) or
// left the view to a rebuild (the first commit, and in the sampled
// fleet the rounds that cross a halving or start unaligned). A folded
// commit is held to a MergeAll over fresh decodes: the maintained
// table draws nothing, so its bytes are the committed state's. A
// rebuild is held to a MergeAll over the blobs as the aggregator
// decoded and stored them, each decoded once and read by the same
// rebuilds, since a rebuild that halves takes words from the stored
// sketches' generators. A stale resend and a snapshot the aggregator
// refuses leave the view as it was.
func TestMaintainedViewMatchesMergeAll(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   bounded.Config
		chunk int
	}{{"rate1", testConfig, 1500}, {"sampled", sampledConfig, 250}} {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := NewAggregator(AggregatorOptions{Config: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			const sites, rounds = 4, 8
			committed := make([][]byte, sites)
			stored := make([]bounded.Sketch, sites)
			var shifts int64 // the count before the commit after() sees
			rebuilds, crossings, exponent, shiftedSampled := 0, 0, 0, 0
			present := func() (blobs [][]byte, parts []bounded.Sketch) {
				for site, blob := range committed {
					if blob != nil {
						blobs, parts = append(blobs, blob), append(parts, stored[site])
					}
				}
				return blobs, parts
			}
			same := func(step string, view []byte) {
				t.Helper()
				if got := viewBytes(t, agg); !bytes.Equal(got, view) {
					t.Fatalf("%s moved the view", step)
				}
			}
			// Two sites sit out round 3, the one after the first crossing,
			// so that the next round's commits meet stored sketches still
			// at the old exponent.
			idle := func(r, site int) bool { return r == 3 && site >= 2 }
			fleetRun(t, agg, tc.cfg, sites, rounds, tc.chunk, idle, func(r, site int, blob []byte) {
				defer func() { shifts = agg.Stats().ViewShifts }()
				committed[site] = blob
				var err error
				if stored[site], err = bounded.UnmarshalSketch(blob); err != nil {
					t.Fatal(err)
				}
				view := viewBytes(t, agg)
				blobs, parts := present()
				want := mergeAllBytes(t, blobs)
				if shifted := agg.Stats().ViewShifts; shifted == shifts {
					rebuilds++
					acc, err := bounded.MergeAll(nil, parts)
					if err != nil {
						t.Fatal(err)
					}
					if want, err = acc.MarshalBinary(); err != nil {
						t.Fatal(err)
					}
				} else if shifted != shifts+1 {
					t.Fatalf("round %d site-%d: one commit counted %d shifts", r, site, shifted-shifts)
				} else if exponent > 0 {
					shiftedSampled++
				}
				if !bytes.Equal(view, want) {
					t.Fatalf("round %d site-%d: the view differs from a MergeAll over the committed blobs", r, site)
				}
				if p := agg.Stats().ViewSampleExponent; p > exponent {
					crossings, exponent = crossings+1, p
				}
				id := fmt.Sprintf("site-%d", site)
				switch {
				case r == 1 && site == 1:
					stale := agg.Stats().SnapshotsStale
					commitHH(t, agg, id, 1, blob)
					if agg.Stats().SnapshotsStale != stale+1 {
						t.Fatal("a resend of seq 1 was not counted stale")
					}
					same("a stale resend", view)
				case r == 2 && site == 2:
					general, err := bounded.NewHeavyHitters(tc.cfg, bounded.WithStrict(false))
					if err != nil {
						t.Fatal(err)
					}
					foreign, err := general.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					snap := &netproto.Snapshot{Seq: 99, Gen: 99, Sketches: []wire.Blob{{Bit: uint32(engine.HeavyHitters), Payload: foreign}}}
					if _, err := agg.applySnapshot(id, snap); err == nil {
						t.Fatal("a general heavy-hitters snapshot among strict ones was committed")
					}
					same("a refused snapshot", view)
				}
			})
			st := agg.Stats()
			t.Logf("%d commits: %d shifts, %d rebuilds, %d crossings to exponent %d", st.SnapshotsApplied, st.ViewShifts, rebuilds, crossings, exponent)
			if want := int64(sites*rounds - 2); st.SnapshotsApplied != want || st.ViewShifts+int64(rebuilds) != want {
				t.Fatalf("%d commits applied, %d shifted and %d rebuilt, want %d", st.SnapshotsApplied, st.ViewShifts, rebuilds, want)
			}
			switch {
			case tc.name == "rate1" && rebuilds != 1:
				t.Fatalf("%d rebuilds at rate 1, want the first commit's alone", rebuilds)
			case tc.name == "sampled" && (crossings < 2 || shiftedSampled < sites):
				t.Fatalf("the sampled fleet crossed %d halvings and shifted %d commits past the first: not what it tests", crossings, shiftedSampled)
			}
		})
	}
}

// TestHeavyHittersOverMatchesRerank: after every commit of
// TestMaintainedViewMatchesMergeAll's rate-1 and sampled fleets, and of
// a rate-1 fleet in the general model (a Cauchy L1 scale), the answer a
// heavy-hitters query returns equals what the materialized view — its
// candidates re-ranked — answers. After a commit a shift folded in, the
// query takes that answer over the agents' candidates, counts one view
// refresh and leaves the view's bytes as they were: only the
// materialization re-ranks.
func TestHeavyHittersOverMatchesRerank(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   bounded.Config
		chunk int
		opts  []bounded.Option
	}{
		{"rate1", testConfig, 1500, nil},
		{"sampled", sampledConfig, 250, nil},
		{"general", testConfig, 1500, []bounded.Option{bounded.WithStrict(false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := NewAggregator(AggregatorOptions{Config: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			over, found := 0, 0
			idle := func(r, site int) bool { return r == 3 && site >= 2 }
			fleetRun(t, agg, tc.cfg, 4, 8, tc.chunk, idle, func(r, site int, _ []byte) {
				agg.qmu.Lock()
				shifted := agg.shifted
				agg.qmu.Unlock()
				var held []byte
				if shifted {
					held = heldViewBytes(t, agg)
				}
				before := agg.Stats()
				got := agg.answer(&netproto.Query{Op: netproto.OpHeavyHitters})
				if got.Err != "" {
					t.Fatal(got.Err)
				}
				if shifted {
					if !bytes.Equal(heldViewBytes(t, agg), held) {
						t.Fatalf("round %d site-%d: a heavy-hitters query wrote the shifted view", r, site)
					}
					if st := agg.Stats(); st.ViewBuilds != before.ViewBuilds+1 {
						t.Fatalf("round %d site-%d: the answer over a shifted table counted %d refreshes", r, site, st.ViewBuilds-before.ViewBuilds)
					}
				}
				agg.qmu.Lock()
				hh, err := agg.materializedView()
				agg.qmu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				if want := hh.HeavyHitters(); !slices.Equal(got.Keys, want) {
					t.Fatalf("round %d site-%d (shifted %v): answered %v, the re-ranked view %v", r, site, shifted, got.Keys, want)
				}
				if shifted {
					over++
				}
				found += len(got.Keys)
			}, tc.opts...)
			t.Logf("%d commits answered over a shifted table, %d keys answered in all", over, found)
			if over < 4 || found == 0 {
				t.Fatalf("%d commits answered over a shifted table, %d keys answered: not what it tests", over, found)
			}
		})
	}
}

// TestAlignedViewIgnoresQueryHistory: two aggregators given the same
// fleet-aligned commits, one asked after every commit and one only at
// each round's end, hold the same view bytes — those of a MergeAll over
// the committed blobs — at the end of every round in which every
// stored sketch samples at the union's exponent. (Outside those rounds
// a rebuild halves, and its draws depend on how often earlier builds
// read the same stored sketches: ROADMAP 4a.)
func TestAlignedViewIgnoresQueryHistory(t *testing.T) {
	eager, err := NewAggregator(AggregatorOptions{Config: sampledConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	lazy, err := NewAggregator(AggregatorOptions{Config: sampledConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	const sites = 4
	committed := make([][]byte, sites)
	compared, sampled := 0, 0
	fleetRun(t, eager, sampledConfig, sites, 8, 250, nil, func(r, site int, blob []byte) {
		askHH(t, eager)
		if got := commitHH(t, lazy, fmt.Sprintf("site-%d", site), uint64(r+1), blob); got != int(eager.unionExponent) {
			t.Fatalf("round %d site-%d: the two aggregators ACK exponents %d and %d", r, site, eager.unionExponent, got)
		}
		committed[site] = blob
		if site < sites-1 {
			return
		}
		want := mergeAllBytes(t, committed)
		p := -1
		for _, blob := range committed {
			_, e := hhExponent(t, blob)
			if p >= 0 && e != p {
				return // an unaligned round
			}
			p = e
		}
		askHH(t, lazy)
		if p != lazy.Stats().ViewSampleExponent {
			return // the union crossed a halving
		}
		if !bytes.Equal(viewBytes(t, eager), want) || !bytes.Equal(viewBytes(t, lazy), want) {
			t.Fatalf("round %d: an aligned union's view depends on when it was asked", r)
		}
		compared++
		if p > 0 {
			sampled++
		}
	})
	if compared < 4 || sampled < 2 {
		t.Fatalf("compared %d aligned rounds, %d of them sampled: not what it tests", compared, sampled)
	}
}

// hhExponent decodes a heavy-hitters blob and reports its exponent.
func hhExponent(t *testing.T, blob []byte) (*bounded.HeavyHitters, int) {
	t.Helper()
	sk, err := bounded.UnmarshalSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	hh := sk.(*bounded.HeavyHitters)
	return hh, hh.SampleExponent()
}
