package netagg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
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

// askHH asks the aggregator a heavy-hitters query, which builds the
// merged view if a commit moved the state since the last one.
func askHH(t testing.TB, agg *Aggregator) {
	t.Helper()
	if ans := agg.answer(&netproto.Query{Op: netproto.OpHeavyHitters}); ans.Err != "" {
		t.Fatal(ans.Err)
	}
}

// viewBytes returns the merged heavy-hitters view's encoding.
func viewBytes(t testing.TB, agg *Aggregator) []byte {
	t.Helper()
	askHH(t, agg)
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
// re-pinned when the view began to be built by MergeAll: its tables are
// the pairwise chain's, and its candidates are re-ranked once over the
// union and laid out by id, where the chain re-ranked after every agent
// and laid them out in offer order. At rate 1 the digest of what the
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
		rate1             = "491ee313f1e3be740e2bf80b8782aa490dbbea50dd170030a413d178dfb39ba2"
		allSynced         = "709560dad2371a23b1bdadd72a2e62efab745180ec1b6291c2b2c7ea7d932dc8"
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

// TestViewRebuildAllocatesOneState: a rate-1 rebuild over four agents
// writes ONE heavy-hitters state — the union, into the previous view's
// storage; the agents' sketches are read where they are stored — and
// the candidate re-rank's scratch is pooled, so it allocates under
// 0.01 times what cloning one stored sketch allocates, held under
// 0.074x (a fresh accumulator per build would add 1x, a clone of every
// agent 4x).
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
	stored := agg.agents["site-0"].sketches[engine.HeavyHitters]
	state := allocated(func() { stored.Clone() })
	// The collector is off from here on: a cycle between the warm-up and
	// the measured rebuild can empty the pools the re-rank's scratch and
	// the batch live in, and their refill would be charged to the rebuild.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	askHH(t, agg) // the batch pool and the query scratch reach their steady size
	commitHH(t, agg, "site-3", 2, blobs[3])
	rebuild := allocated(func() {
		agg.qmu.Lock()
		defer agg.qmu.Unlock()
		if _, err := agg.mergedView(); err != nil {
			t.Error(err)
		}
	})
	if got := agg.Stats().ViewBuilds; got != 2 {
		t.Fatalf("%d view builds, want 2", got)
	}
	t.Logf("rebuild allocated %d bytes, %.2fx one %d-byte state", rebuild, float64(rebuild)/float64(state), state)
	if ceiling := state * 74 / 1000; rebuild > ceiling {
		t.Fatalf("a rebuild over 4 agents allocated %d bytes, %.3fx one %d-byte state (ceiling 0.074x)", rebuild, float64(rebuild)/float64(state), state)
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

// TestViewCandidatesReported: a build over four agents reports the
// union of their candidates and how many the view kept — the tracker's
// limit, 2 · 4⌈1/ε⌉, of a union larger than it — in AggregatorStats
// and on /metrics, and the view's tracker holds that many: its encoding
// ends in the kept count and 16 bytes per candidate.
func TestViewCandidatesReported(t *testing.T) {
	agg, err := NewAggregator(AggregatorOptions{Config: testConfig})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	reg := obs.NewRegistry()
	agg.ExposeMetrics(reg, "t")
	rate1Sites(t, agg, testConfig, 4, 10_000)
	askHH(t, agg)
	st := agg.Stats()
	limit := 2 * 4 * int(math.Ceil(1/testConfig.Eps))
	if st.ViewCandidates <= limit || st.ViewKept != min(limit, st.ViewCandidates) {
		t.Fatalf("view kept %d of a union of %d candidates, want min(limit %d, union) of a union past it", st.ViewKept, st.ViewCandidates, limit)
	}
	b := viewBytes(t, agg)
	if at := len(b) - 16*st.ViewKept - 4; at < 0 || binary.LittleEndian.Uint32(b[at:]) != uint32(st.ViewKept) {
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
