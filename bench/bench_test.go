package main

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/csss"
)

func TestSegmentDependsOnlyOnSeed(t *testing.T) {
	a, b, c := genSegment(7, 1<<14, 1.2), genSegment(7, 1<<14, 1.2), genSegment(8, 1<<14, 1.2)
	if !reflect.DeepEqual(a.updates, b.updates) {
		t.Fatal("the same seed produced two different segments")
	}
	if reflect.DeepEqual(a.updates, c.updates) {
		t.Fatal("two seeds produced the same segment")
	}
}

func TestSegmentIsStrictWithBoundedAlpha(t *testing.T) {
	seg := genSegment(3, 1<<16, 1.05)
	if err := seg.validate(); err != nil {
		t.Fatal(err)
	}
	for i, p := range seg.split(fleetAgents, 1024) {
		if len(p.updates) == 0 || len(p.updates)%1024 != 0 {
			t.Fatalf("site %d holds %d updates, want a positive multiple of 1024", i, len(p.updates))
		}
		if err := p.validate(); err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	// A deletion with nothing live must be caught, not generated around.
	seg.updates[0].Delta = -1
	if err := seg.validate(); err == nil {
		t.Fatal("validate accepted a segment that opens with a deletion")
	}
}

func TestStreamReferenceMatchesReplay(t *testing.T) {
	seg := genSegment(5, 1<<12, 1.2)
	st := &stream{seg: seg}
	want := make([]int64, universeN)
	for i := 0; i < 2*(1<<12)/256+5; i++ { // two replays and a partial third
		for _, u := range st.next(256) {
			want[u.Index] += u.Delta
		}
	}
	ref := newReference(st)
	if !reflect.DeepEqual(ref.f, want) {
		t.Fatal("reference vector differs from the updates handed out")
	}
	var l1, l0 int64
	for _, v := range want {
		if v != 0 {
			l0++
			l1 += v
		}
	}
	if ref.l1 != l1 || ref.l0 != l0 {
		t.Fatalf("reference norms (%d, %d), want (%d, %d)", ref.l1, ref.l0, l1, l0)
	}
	if got := st.sent(); got != int64(2*(1<<12)+5*256) {
		t.Fatalf("sent() = %d", got)
	}
}

func TestTailRankNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		have bool
	}{
		{5, 0, false}, {99, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true},
		{9999, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true},
	} {
		q, ok := tailRank(c.n)
		if ok != c.have || q != c.q {
			t.Errorf("tailRank(%d) = (%g, %v), want (%g, %v)", c.n, q, ok, c.q, c.have)
		}
	}
	x := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	s := summarize(x)
	if s.N != 1000 || s.P50 != 500.5 || s.TailQ != 0.99 || s.Tail != 990 || s.P99 != 990 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(x[:50]); s.TailQ != 0 {
		t.Fatalf("50 samples reported a p%g", s.TailQ*100)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	x := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(x)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of three values = %g %g %g", q1, q2, q3)
	}
	if got := spread(x); got != (8.25-2.75)/5.5 {
		t.Fatalf("spread = %g", got)
	}
}

// The regime assertions rest on predicting the sampling exponent from
// unit mass alone; check the arithmetic against the structure itself
// across three halving boundaries.
func TestSampleExponentMatchesCSSS(t *testing.T) {
	const S = 300
	sk := csss.New(rand.New(rand.NewSource(1)), csss.Params{Rows: 3, K: 4, S: S})
	seen := map[int]bool{}
	for mass := int64(1); mass <= 16*S+5; mass++ {
		sk.Update(uint64(mass%97), 1)
		if got, want := sampleExponent(mass, S), sk.SampleExponent(); got != want {
			t.Fatalf("after %d units (S = %d) predicted p = %d, the sketch is at p = %d", mass, S, got, want)
		}
		seen[sk.SampleExponent()] = true
	}
	if len(seen) < 4 {
		t.Fatalf("crossed %d halving boundaries, want at least 3", len(seen)-1)
	}
}

// A lap's rate and the global-query samples it added are adjusted by the
// yardstick reading taken at its end, and by no other.
func TestEndLapAdjustsByTheLapsOwnReading(t *testing.T) {
	y := newYardstick()
	m := &meter{global: []float64{2, 4}}
	rate, adj := m.endLap(y, 1000, 0.5)
	host := m.slow[0]
	if host <= 0 || rate != 2000 || adj != 2000*host {
		t.Fatalf("rate %g, adjusted %g, slowdown %g", rate, adj, host)
	}
	m.global = append(m.global, 6)
	m.endLap(y, 1000, 0.5)
	want := []float64{2 / host, 4 / host, 6 / m.slow[1]}
	if !reflect.DeepEqual(m.adjGlobal, want) {
		t.Fatalf("adjusted samples %v, want %v", m.adjGlobal, want)
	}
}

// However long the window, a block of the sampled workload must fit
// between 2S (plus the lap the warm-up may overshoot by) and 4S.
func TestBlockPlanKeepsSampledBlocksBelow4S(t *testing.T) {
	sp, _ := specByName("ingest-sampled")
	lap := int64(sp.lapCalls * sp.batch)
	for _, seconds := range []float64{1, 10, runSeconds, 60} {
		blocks, perBlock := sp.blockPlan(seconds)
		if blocks < sp.blocks || blocks*perBlock < sp.laps(seconds) {
			t.Errorf("%g s: %d blocks of %d laps for %d laps", seconds, blocks, perBlock, sp.laps(seconds))
		}
		if int64(perBlock+1)*lap > 2*sp.sampleBudget() {
			t.Errorf("%g s: a block of %d laps can reach 4S", seconds, perBlock)
		}
	}
}

func TestLedgerSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &track{Spans: []span{
		{Name: "lap", Start: 0, End: 100, Parent: -1},
		{Name: "engine.Ingest", Start: 10, End: 40, Parent: 0},
		{Name: "engine.Ingest", Start: 50, End: 60, Parent: 0},
		{Name: "engine.Flush", Start: 70, End: 95, Parent: 0},
	}}
	got := ledger(tr, nil)
	want := map[string]selfTime{
		"lap":           {Calls: 1, TotalNS: 100, SelfNS: 35},
		"engine.Ingest": {Calls: 2, TotalNS: 40, SelfNS: 40},
		"engine.Flush":  {Calls: 1, TotalNS: 25, SelfNS: 25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger = %+v, want %+v", got, want)
	}
	var off *track
	if id := off.begin("x", -1, 0); id != -1 {
		t.Fatalf("a nil track opened span %d", id)
	}
	off.end(-1) // must not panic
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalogue; regenerate it with `bash bench/run.sh -catalogue > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if endToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// smokeScale shrinks segments and laps for the end-to-end smoke runs.
func smokeScale() int {
	if testing.Short() {
		return 400
	}
	return 100
}

func checkOutcome(t *testing.T, out *outcome, defs []metric, nonZero bool) {
	t.Helper()
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%d of %d operations failed", out.failed, out.attempted)
	}
	if len(out.metrics) != len(defs) {
		t.Errorf("run reported %d metrics, the catalogue lists %d", len(out.metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if nonZero && v == 0 {
			t.Errorf("end-to-end metric %s is 0", d.Name)
		}
	}
}

func TestSmokeIngestRate1(t *testing.T) {
	sp, err := specByName("ingest-rate1")
	if err != nil {
		t.Fatal(err)
	}
	o := runOpts{seed: 1, seconds: 1, outDir: t.TempDir(), scale: smokeScale()}
	out, err := runEngine(sp, o)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, out, endToEnd, true)

	o.trace = true
	out, err = runEngine(sp, o)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, out, perLayer, false)
	if _, err := os.Stat(out.tracePath); err != nil {
		t.Fatalf("traced run left no span file: %v", err)
	}
	for _, name := range []string{"engine.ingest_call_us.p50", "shard.busy_share.max", "structures.hh.update_ns", "hash.vector_calls", "ckpt.bytes"} {
		if out.metrics[name] == 0 {
			t.Errorf("per-layer metric %s is 0 on the workload that exercises it", name)
		}
	}
}

func TestSmokeMixedAndFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("the four-structure engine and the loopback fleet take a few seconds")
	}
	for _, name := range []string{"mixed-readwrite", "fleet-sync"} {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := runEngine
		if sp.fleet {
			run = runFleet
		}
		for _, trace := range []bool{false, true} {
			out, err := run(sp, runOpts{seed: 2, seconds: 3, trace: trace, outDir: t.TempDir(), scale: 8})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if trace {
				checkOutcome(t, out, perLayer, false)
			} else {
				checkOutcome(t, out, endToEnd, true)
			}
		}
	}
}

// A broken regime must stop the run before any metric exists.
func TestRegimeAssertionRejectsTheRun(t *testing.T) {
	sp, _ := specByName("ingest-rate1")
	small := *sp.scaled(100)
	small.cfg.Alpha = 1 // S collapses to 52500, so a block's 160k updates leave rate-1
	_, err := runEngine(&small, runOpts{seed: 1, seconds: 10, outDir: t.TempDir(), scale: 1})
	if _, ok := err.(*invalidRun); !ok {
		t.Fatalf("want an invalidRun, got %v", err)
	}
}
