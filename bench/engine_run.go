package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/engine"
	"repro/internal/ckpt"
	"repro/internal/obs"
)

// runOpts is one invocation's arguments.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	scale   int // tests shrink the segment and the lap by this; 1 otherwise
}

// outcome is what a run reports: the operation counts behind
// failed_ops_share and the metrics of the pass that ran.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
	tracePath         string
}

// invalidRun is returned when a regime assertion or a counter identity
// fails: the numbers would describe something other than the workload
// names, so none are printed.
type invalidRun struct{ msg string }

func (e *invalidRun) Error() string { return "invalid run: " + e.msg }

func invalidf(format string, args ...any) error {
	return &invalidRun{fmt.Sprintf(format, args...)}
}

// meter collects what a run observes.
type meter struct {
	attempted, failed int64
	firstErr          error
	point, global     []float64 // seconds per EstimateBatch / HeavyHitters
	fresh             []float64 // seconds from the last Ingest's return to a covering answer

	// The gated timings, raw and host-adjusted (see yardstick.go): one
	// rate and one slowdown per untraced lap, one set-up per block, and
	// adjGlobal[i] is global[i] divided by its lap's slowdown.
	rates, adjRates   []float64
	setupS, adjSetupS []float64
	adjGlobal, slow   []float64
}

// endLap closes a lap whose updates took wall seconds: it takes the
// lap's yardstick reading, adjusts the global-query samples the lap
// added, and returns the lap's raw and adjusted rate.
func (m *meter) endLap(y *yardstick, updates int, wall float64) (rate, adjRate float64) {
	host := y.slowdown()
	m.slow = append(m.slow, host)
	for _, d := range m.global[len(m.adjGlobal):] {
		m.adjGlobal = append(m.adjGlobal, d/host)
	}
	rate = float64(updates) / wall
	return rate, rate * host
}

// warmup sums the warm-up laps of one set-up: their time, the same with
// each lap divided by the yardstick reading taken at its end, and the
// time the readings took.
type warmup struct {
	y                *yardstick
	raw, adj, gauged float64
}

func (w *warmup) lap(run func() error) error {
	t := time.Now()
	err := run()
	d := time.Since(t)
	host := w.y.slowdown()
	w.raw += d.Seconds()
	w.adj += d.Seconds() / host
	w.gauged += (time.Since(t) - d).Seconds()
	return err
}

// setup times build, one block's set-up. Its warm-up laps are adjusted
// one by one; what is left (construction, connections, the final Flush)
// by the yardstick readings on either side of the set-up.
func (m *meter) setup(y *yardstick, build func(*warmup) error) error {
	w := &warmup{y: y}
	before := y.slowdown()
	t := time.Now()
	err := build(w)
	rest := time.Since(t).Seconds() - w.raw - w.gauged
	m.setupS = append(m.setupS, w.raw+rest)
	m.adjSetupS = append(m.adjSetupS, w.adj+rest/((before+y.slowdown())/2))
	return err
}

func (m *meter) op(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		if m.firstErr == nil {
			m.firstErr = err
		}
	}
}

// liveHeapMB is the heap's live bytes once garbage is collected. (The
// spans those bytes sit in, HeapInuse, move by a tenth of the systems'
// one to two megabytes from run to run; the bytes repeat within 1 %.)
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// keySets cuts the probe keys (first half hot, second half uniform)
// into point-query batches of readKeys keys, half hot and half uniform.
func keySets(probes []uint64) [][]uint64 {
	half := len(probes) / 2
	per := readKeys / 2
	var sets [][]uint64
	for i := 0; (i+1)*per <= half; i++ {
		set := append([]uint64(nil), probes[i*per:(i+1)*per]...)
		set = append(set, probes[half+i*per:half+(i+1)*per]...)
		sets = append(sets, set)
	}
	return sets
}

// shardPlan knows, for a segment and a shard count, which shard every
// update of the segment lands on — so the unit mass (and with it the
// CSSS sampling exponent) of every shard is known by arithmetic at any
// stream position.
type shardPlan struct {
	of        []uint8 // shard of segment update t
	perReplay []int64
}

func newShardPlan(sp *spec, shards int, seg *segment) (*shardPlan, error) {
	e, err := engine.New(sp.cfg, engine.Options{Shards: shards, Structures: engine.HeavyHitters})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	p := &shardPlan{of: make([]uint8, len(seg.updates)), perReplay: make([]int64, shards)}
	for t, u := range seg.updates {
		s := e.ShardOf(u.Index)
		p.of[t] = uint8(s)
		p.perReplay[s]++
	}
	return p, nil
}

// massAt is every shard's unit mass once st's updates so far are applied.
func (p *shardPlan) massAt(st *stream) []int64 {
	m := make([]int64, len(p.perReplay))
	for s, v := range p.perReplay {
		m[s] = st.replays * v
	}
	for _, s := range p.of[:st.pos] {
		m[s]++
	}
	return m
}

// engineSystem is an engine under test and the stream feeding it.
type engineSystem struct {
	sp   *spec
	e    *engine.Engine
	st   *stream
	plan *shardPlan
	rd   reader
	y    *yardstick
}

// buildEngine constructs the engine and brings it to the state the
// timed window starts from: the workload's warm-up laps, then — for
// the sampled regime — further laps until every shard holds 2S units.
func buildEngine(sp *spec, seg *segment, plan *shardPlan, y *yardstick, w *warmup) (*engineSystem, error) {
	e, err := engine.New(sp.cfg, engine.Options{Shards: len(plan.perReplay), Structures: sp.structures})
	if err != nil {
		return nil, err
	}
	s := &engineSystem{sp: sp, e: e, st: &stream{seg: seg}, plan: plan, y: y}
	warm := func() error {
		for c := 0; c < sp.lapCalls; c++ {
			if err := e.Ingest(s.st.next(sp.batch)); err != nil {
				return err
			}
		}
		return nil
	}
	for l := 0; l < sp.warmLaps; l++ {
		if err := w.lap(warm); err != nil {
			e.Close()
			return nil, err
		}
	}
	for sp.regime == regimeSampled && minOf(plan.massAt(s.st)) < 2*sp.sampleBudget()+1 {
		if err := w.lap(warm); err != nil {
			e.Close()
			return nil, err
		}
	}
	if err := e.Flush(); err != nil {
		e.Close()
		return nil, err
	}
	return s, nil
}

func minOf(x []int64) int64 {
	m := x[0]
	for _, v := range x[1:] {
		m = min(m, v)
	}
	return m
}

func maxOf(x []int64) int64 {
	m := x[0]
	for _, v := range x[1:] {
		m = max(m, v)
	}
	return m
}

func sumOf(x []int64) int64 {
	var t int64
	for _, v := range x {
		t += v
	}
	return t
}

// checkRegime fails the run unless the shards' predicted masses sit in
// the regime the workload names. atStart distinguishes the window's two
// ends: the sampled regime must already hold 2S when the window opens
// and must not have passed 4S when it closes.
func (s *engineSystem) checkRegime(atStart bool) error {
	mass := s.plan.massAt(s.st)
	S := s.sp.sampleBudget()
	switch s.sp.regime {
	case regimeRate1:
		// The merged view halves on the shards' combined position, so
		// the whole stream, not each shard, must stay below 2S.
		if t := sumOf(mass); t >= 2*S+1 {
			return invalidf("%s: stream mass %d reached 2S+1 = %d: CSSS left the rate-1 regime", s.sp.name, t, 2*S+1)
		}
	case regimeSampled:
		if atStart && minOf(mass) < 2*S+1 {
			return invalidf("%s: a shard holds %d units at the window's start, below 2S+1 = %d", s.sp.name, minOf(mass), 2*S+1)
		}
		if !atStart && maxOf(mass) >= 4*S+1 {
			return invalidf("%s: a shard holds %d units at the window's end, past 4S = %d: it halved a second time", s.sp.name, maxOf(mass), 4*S)
		}
	}
	return nil
}

// checkIdentity compares the engine's exact counters with what was
// sent: after a Flush every shard must have applied exactly the keys
// the partition plan predicts for it.
func (s *engineSystem) checkIdentity() error {
	if !obs.Enabled {
		return nil // -tags noobs: the engine's counters read zero
	}
	st := s.e.Stats()
	mass := s.plan.massAt(s.st)
	var applied int64
	for i, sh := range st.PerShard {
		applied += sh.KeysApplied
		if sh.KeysApplied != mass[i] {
			return invalidf("%s: shard %d applied %d keys, the partition plan predicts %d", s.sp.name, i, sh.KeysApplied, mass[i])
		}
	}
	if applied != s.st.sent() {
		return invalidf("%s: shards applied %d keys, %d were sent", s.sp.name, applied, s.st.sent())
	}
	return nil
}

// reader is the mixed workload's reads: a cycle of six point-query
// batches, one heavy hitters query, then L1, L0 and Support. The lap
// takes one step of the cycle after every Ingest call, from the
// goroutine that ingests — a caller that writes and reads by turns — so
// a lap's reads are fixed work like its writes, every read finds the
// batches just handed over still queued ahead of it, and no second load
// goroutine competes for a CPU. It keeps its place in the cycle from
// lap to lap.
type reader struct {
	cycle, step int
}

// readerSteps is the length of one reader cycle.
const readerSteps = 10

func (r *reader) next(e *engine.Engine, sets [][]uint64, m *meter, tr *track, parent, lap int) {
	name, samples := "engine.EstimateBatch", &m.point
	if r.step >= 6 {
		name = [...]string{"engine.HeavyHitters", "engine.L1", "engine.L0", "engine.Support"}[r.step-6]
		samples = nil
		if r.step == 6 {
			samples = &m.global
		}
	}
	var err error
	id := tr.begin(name, parent, lap)
	t := time.Now()
	switch r.step {
	case 6:
		_, err = e.HeavyHitters()
	case 7:
		_, err = e.L1()
	case 8:
		_, err = e.L0()
	case 9:
		_, err = e.Support()
	default:
		_, err = e.EstimateBatch(sets[(r.cycle*6+r.step)%len(sets)])
	}
	d := time.Since(t).Seconds()
	tr.end(id)
	m.op(err)
	if samples != nil {
		*samples = append(*samples, d)
	}
	if r.step++; r.step == readerSteps {
		r.step = 0
		r.cycle++
	}
}

// lapResult is what one lap of the timed window measured.
type lapResult struct {
	rate    float64 // updates per second, first Ingest to Flush's return
	adjRate float64 // the same, host-adjusted
	wall    float64
	ingestS float64 // time inside Ingest calls (traced laps only)
	idle    []float64
	traced  bool
}

// lap runs one lap: lapCalls Ingest calls (the mixed workload: each
// followed by one read), then Flush, then — with nothing in flight — one
// HeavyHitters call, the lap's yardstick reading and idleReads
// point-query batches. tr is nil on untraced laps.
func (s *engineSystem) lap(lapNo int, tr *track, m *meter, sets [][]uint64) (lapResult, error) {
	e, sp := s.e, s.sp
	res := lapResult{traced: tr != nil}

	root := tr.begin("lap", -1, lapNo)
	start := time.Now()
	for c := 0; c < sp.lapCalls; c++ {
		b := s.st.next(sp.batch)
		var err error
		if tr == nil {
			err = e.Ingest(b)
		} else {
			id := tr.begin("engine.Ingest", root, lapNo)
			err = e.Ingest(b)
			tr.end(id)
			res.ingestS += float64(tr.Spans[id].End-tr.Spans[id].Start) / 1e9
		}
		m.op(err)
		if sp.reader {
			s.rd.next(e, sets, m, tr, root, lapNo)
		}
	}
	ingested := time.Now()
	id := tr.begin("engine.Flush", root, lapNo)
	err := e.Flush()
	tr.end(id)
	flushed := time.Now()
	m.op(err)
	id = tr.begin("engine.HeavyHitters", root, lapNo)
	_, err = e.HeavyHitters()
	tr.end(id)
	answered := time.Now()
	m.op(err)
	tr.end(root)

	res.wall = flushed.Sub(start).Seconds()
	m.fresh = append(m.fresh, answered.Sub(ingested).Seconds())
	if !sp.reader {
		// Without a reader the lap-boundary call is the workload's
		// global query: quiesced, view rebuild included.
		m.global = append(m.global, answered.Sub(flushed).Seconds())
	}
	res.rate, res.adjRate = m.endLap(s.y, sp.lapCalls*sp.batch, res.wall)
	for i := 0; i < idleReads; i++ {
		id := tr.begin("engine.EstimateBatch.idle", -1, lapNo)
		t := time.Now()
		_, err := e.EstimateBatch(sets[(lapNo*idleReads+i)%len(sets)])
		d := time.Since(t).Seconds()
		tr.end(id)
		m.op(err)
		res.idle = append(res.idle, d)
		if !sp.reader {
			m.point = append(m.point, d)
		}
	}
	return res, s.checkIdentity()
}

// prepare generates and validates a run's segment and cuts its probe
// keys into point-query batches.
func prepare(sp *spec, seed int64) (*segment, [][]uint64, error) {
	seg := genSegment(seed, sp.segLen, sp.zipf)
	if err := seg.validate(); err != nil {
		return nil, nil, invalidf("%s: %v", sp.name, err)
	}
	return seg, keySets(probeKeys(seg, seed, probeCount)), nil
}

// endToEndMetrics is the untraced pass's report, its three timings
// host-adjusted; wireBytes is the one entry an engine and a fleet
// measure differently.
func endToEndMetrics(m *meter, ans answers, wireBytes float64, spaceBits int64, heapMB float64) map[string]float64 {
	return map[string]float64{
		"setup_s":              median(m.adjSetupS),
		"updates_per_s":        median(m.adjRates),
		"global_query_ms.p50":  median(m.adjGlobal) * 1e3,
		"state_wire_bytes":     wireBytes,
		"hh_recall":            ans.recall,
		"hh_precision":         ans.precision,
		"point_err_ratio.mean": ans.errRatioMean,
		"space_bits":           float64(spaceBits),
		"state_heap_mb":        heapMB,
	}
}

// runEngine runs one engine workload. The run is cut into blocks, each
// a fresh engine brought to the window's starting state (timed: a
// set-up sample) and then driven for its share of the laps; lap rates
// and query samples pool over the blocks. One engine instance can sit
// several percent above or below another for its whole life on this
// host (thread and memory placement), so a single instance per run
// would turn that luck into run-to-run spread. The last block's engine
// is checked against the exact reference and, traced, probed.
func runEngine(sp *spec, o runOpts) (*outcome, error) {
	sp = sp.scaled(o.scale)
	seg, sets, err := prepare(sp, o.seed)
	if err != nil {
		return nil, err
	}
	plan, err := newShardPlan(sp, sp.shards, seg)
	if err != nil {
		return nil, err
	}
	y := newYardstick()
	heap0 := liveHeapMB()

	m := &meter{}
	var tr *track
	if o.trace {
		tr = newTrack("driver", time.Now())
	}
	S := sp.sampleBudget()
	blocks, perBlock := sp.blockPlan(o.seconds)
	var (
		sys                 *engineSystem
		traced, idle        []float64
		ingestS, tracedWall float64
		lc                  ledgerCounts
		pStart, pEnd        = math.MaxInt, 0
	)
	defer func() {
		if sys != nil {
			sys.e.Close()
		}
	}()
	for b := 0; b < blocks; b++ {
		if sys != nil {
			sys.e.Close()
		}
		err := m.setup(y, func(w *warmup) (err error) {
			sys, err = buildEngine(sp, seg, plan, y, w)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := sys.checkRegime(true); err != nil {
			return nil, err
		}
		if err := sys.checkIdentity(); err != nil {
			return nil, err
		}
		for _, mass := range plan.massAt(sys.st) {
			pStart = min(pStart, sampleExponent(mass, S))
		}
		c0, s0 := readCounters(), sys.e.Stats()
		for i := 0; i < perBlock; i++ {
			l := b*perBlock + i
			// A traced run alternates traced and untraced laps, so the
			// two throughputs it compares saw the same state and host.
			var lt *track
			if o.trace && l%2 == 1 {
				lt = tr
			}
			r, err := sys.lap(l, lt, m, sets)
			if err != nil {
				return nil, err
			}
			if r.traced {
				traced = append(traced, r.rate)
				ingestS += r.ingestS
				tracedWall += r.wall
			} else {
				m.rates = append(m.rates, r.rate)
				m.adjRates = append(m.adjRates, r.adjRate)
			}
			idle = append(idle, r.idle...)
			lc.wall += r.wall
		}
		lc.addProcess(c0, readCounters())
		lc.addEngine(0, s0, sys.e.Stats())
		if err := sys.checkRegime(false); err != nil {
			return nil, err
		}
		for _, mass := range plan.massAt(sys.st) {
			pEnd = max(pEnd, sampleExponent(mass, S))
		}
	}

	ref := newReference(sys.st)
	ans, err := checkAnswers(sp, ref, m, engineQuerier{sys.e}, sets)
	if err != nil {
		return nil, err
	}
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failed operation: %v\n", m.firstErr)
	}
	spaceBits, err := sys.e.SpaceBits()
	m.op(err)
	snap, err := sys.e.SnapshotPartitioned()
	m.op(err)
	heap1 := liveHeapMB()
	runtime.KeepAlive(y) // resident at both heap readings, so not in their difference

	out := &outcome{metrics: map[string]float64{}}
	if !o.trace {
		out.attempted, out.failed = m.attempted, m.failed
		out.metrics = endToEndMetrics(m, ans, float64(len(snap)), spaceBits, heap1-heap0)
		out.notes = timingNotes(m)
		return out, nil
	}

	// Traced pass: the ledger.
	pl := out.metrics
	for _, d := range perLayer {
		pl[d.Name] = 0
	}
	benchNotes(pl, m, traced, perBlock*blocks)
	pl["bench.generator_mupd_s"] = generatorCeiling(sys.st, sp)
	lc.emit(pl)
	kernelProvenance(pl)

	ing := summarize(tr.durations("engine.Ingest"))
	pl["engine.ingest_call_us.p50"] = ing.P50 * 1e6
	pl["engine.ingest_call_us.p99"] = ing.P99 * 1e6
	pl["engine.producer_busy_share"] = ingestS / tracedWall
	pl["engine.flush_ms.p50"] = median(tr.durations("engine.Flush")) * 1e3
	eb := summarize(tr.durations("engine.EstimateBatch"))
	pl["engine.estimate_batch_us.p50"] = eb.P50 * 1e6
	pl["engine.estimate_batch_us.p99"] = eb.P99 * 1e6
	pl["engine.estimate_batch_us.idle_p50"] = median(idle) * 1e6
	hhd := summarize(tr.durations("engine.HeavyHitters"))
	pl["engine.heavy_hitters_ms.p50"] = hhd.P50 * 1e3
	pl["engine.heavy_hitters_ms.p99"] = hhd.P99 * 1e3
	pl["engine.l1_us.p50"] = median(tr.durations("engine.L1")) * 1e6
	pl["engine.l0_us.p50"] = median(tr.durations("engine.L0")) * 1e6
	pl["engine.support_ms.p50"] = median(tr.durations("engine.Support")) * 1e3

	ans.emit(pl)
	pl["csss.sample_exponent.start"] = float64(pStart)
	pl["csss.sample_exponent.end"] = float64(pEnd)

	if err := durabilityProbes(sys, o.outDir, tr, pl, m); err != nil {
		return nil, err
	}
	if err := twoShardComparison(sp, seg, y, median(m.adjRates), pl); err != nil {
		return nil, err
	}
	if err := stageProbes(sp, seg, func(kind engine.Structures) ([]byte, error) { return sys.e.Snapshot(kind) }, sp.shards, pl); err != nil {
		return nil, err
	}
	out.attempted, out.failed = m.attempted, m.failed
	tf := &traceFile{Workload: sp.name, Ledger: ledger(tr), Counters: pl, Tracks: []*track{tr}, Provenance: newProvenance(sp, o)}
	if out.tracePath, err = writeTrace(o.outDir, tf); err != nil {
		return nil, err
	}
	return out, nil
}

// timingNotes renders the run's timings the way every timing is
// reported: median, the highest percentile the sample supports, count.
func timingNotes(m *meter) []string {
	line := func(name string, x []float64, unit string, mul float64) string {
		s := summarize(x)
		tail := "no tail percentile (fewer than 100 samples)"
		if s.TailQ > 0 {
			tail = fmt.Sprintf("p%g %.4g %s", s.TailQ*100, s.Tail*mul, unit)
		}
		return fmt.Sprintf("%s: median %.4g %s, %s, p99 %.4g %s (informational), n=%d", name, s.P50*mul, unit, tail, s.P99*mul, unit, s.N)
	}
	r, a := sorted(m.rates), sorted(m.adjRates)
	return []string{
		fmt.Sprintf("host slowdown: median %.4g of %d yardstick readings (%.4g ns per update; nominal %g)", median(m.slow), len(m.slow), median(m.slow)*yardstickNominalNS, yardstickNominalNS),
		fmt.Sprintf("lap updates/s, host-adjusted: median %.4g, min %.4g, max %.4g, laps=%d", median(a), a[0], a[len(a)-1], len(a)),
		fmt.Sprintf("lap updates/s, raw: median %.4g, min %.4g, max %.4g", median(r), r[0], r[len(r)-1]),
		line("global query, host-adjusted", m.adjGlobal, "ms", 1e3),
		line("global query, raw", m.global, "ms", 1e3),
		fmt.Sprintf("set-up: host-adjusted median %.4g s, raw median %.4g s, blocks=%d", median(m.adjSetupS), median(m.setupS), len(m.setupS)),
		line("point query, raw", m.point, "us", 1e6),
		line("fresh answer, raw", m.fresh, "ms", 1e3),
	}
}

// durabilityProbes times the engine's snapshot and checkpoint surface
// on the live end-of-window state, outside the timed laps.
func durabilityProbes(sys *engineSystem, outDir string, tr *track, pl map[string]float64, m *meter) error {
	var snapS []float64
	var payload []byte
	for i := 0; i < 3; i++ {
		id := tr.begin("engine.SnapshotPartitioned", -1, -1)
		t := time.Now()
		p, err := sys.e.SnapshotPartitioned()
		snapS = append(snapS, time.Since(t).Seconds())
		tr.end(id)
		m.op(err)
		if err != nil {
			return err
		}
		payload = p
	}
	pl["engine.snapshot_partitioned_ms"] = median(snapS) * 1e3
	pl["engine.snapshot_partitioned_bytes"] = float64(len(payload))
	t := time.Now()
	restored, err := engine.RestoreCheckpoint(payload, engine.Options{})
	m.op(err)
	if err != nil {
		return err
	}
	pl["engine.restore_partitioned_ms"] = time.Since(t).Seconds() * 1e3
	restored.Close()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.Open(dir, ckpt.Options{})
	if err != nil {
		return err
	}
	var saveS []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("engine.CheckpointTo", -1, -1)
		t := time.Now()
		_, err := sys.e.CheckpointTo(store)
		saveS = append(saveS, time.Since(t).Seconds())
		tr.end(id)
		m.op(err)
		if err != nil {
			return err
		}
	}
	pl["ckpt.save_ms.p50"] = median(saveS) * 1e3
	if fi, err := os.ReadDir(dir); err == nil {
		var newest int64
		for _, f := range fi {
			if info, err := f.Info(); err == nil {
				newest = max(newest, info.Size())
			}
		}
		pl["ckpt.bytes"] = float64(newest)
	}
	t = time.Now()
	reopened, err := engine.OpenCheckpoint(dir, engine.Options{})
	m.op(err)
	if err != nil {
		return err
	}
	pl["ckpt.open_ms"] = time.Since(t).Seconds() * 1e3
	return reopened.Close()
}

// twoShardComparison runs a few laps of the same job on a fresh
// two-shard engine, warmed the same way, with every CPU of the host
// given back to the Go scheduler for its duration. The gated runs use
// one shard on one processor (see runOne), so this is where the ledger
// shows what a second shard and a second CPU buy. Its regime is not
// asserted.
func twoShardComparison(sp *spec, seg *segment, y *yardstick, oneShardRate float64, pl map[string]float64) error {
	const shards, laps = 2, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	plan, err := newShardPlan(sp, shards, seg)
	if err != nil {
		return err
	}
	sys, err := buildEngine(sp, seg, plan, y, &warmup{y: y})
	if err != nil {
		return err
	}
	defer sys.e.Close()
	sets := keySets(probeKeys(seg, 0, probeCount))
	var rates []float64
	m := &meter{}
	for l := 0; l < laps; l++ {
		r, err := sys.lap(l, nil, m, sets)
		if err != nil {
			return err
		}
		rates = append(rates, r.adjRate)
	}
	if m.failed > 0 {
		return fmt.Errorf("two-shard comparison: %d operations failed: %v", m.failed, m.firstErr)
	}
	pl["engine.shards2.updates_per_s"] = median(rates)
	pl["engine.shard_scaling"] = median(rates) / oneShardRate
	return nil
}
