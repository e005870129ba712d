// Command bench is the repository's benchmark: four regime-pinned
// workloads over the sharded engine and the networked aggregation
// tier, nine gated end-to-end metrics and a per-layer cost ledger.
// README.md in this directory is the catalogue.
//
//	bash bench/run.sh                                  every workload, untraced then traced
//	bash bench/run.sh -workload NAME -seed N -seconds S -trace 0|1
//	bash bench/run.sh -aa                              the untraced suite twice, alternating
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hash"
	"repro/internal/obs"
)

// provenance says what was measured: the build, the host, the kernel
// dispatch the hash layer chose for itself, and the frozen sizes.
type provenance struct {
	Commit        string         `json:"commit"`
	GoVersion     string         `json:"go_version"`
	NumCPU        int            `json:"nproc"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	Kernel        string         `json:"hash_kernel"`
	Cutovers      map[string]int `json:"hash_cutovers"`
	CutoverSource string         `json:"hash_cutover_source"`
	ObsEnabled    bool           `json:"obs_enabled"`
	WorkloadSeed  int64          `json:"workload_seed"`
	SketchSeed    int64          `json:"sketch_seed"`
	UniverseSeed  int64          `json:"universe_seed"`
	Workload      string         `json:"workload"`
	Shards        int            `json:"shards"`
	SegmentLen    int            `json:"segment_updates"`
	BatchLen      int            `json:"batch_updates"`
	LapCalls      int            `json:"lap_calls"`
	Laps          int            `json:"laps"`
	Blocks        int            `json:"blocks"`
	WarmLaps      int            `json:"warm_laps"`
	YardstickNS   float64        `json:"yardstick_nominal_ns"`
}

func newProvenance(sp *spec, o runOpts) provenance {
	blocks, perBlock := sp.blockPlan(o.seconds)
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: hash.KernelName(), Cutovers: hash.KernelCutovers(), CutoverSource: hash.KernelCutoverSource(),
		ObsEnabled: obs.Enabled, WorkloadSeed: o.seed, SketchSeed: sketchSeed, UniverseSeed: universeSeed,
		Workload: sp.name, Shards: sp.shards, SegmentLen: sp.segLen, BatchLen: sp.batch,
		LapCalls: sp.lapCalls, Laps: blocks * perBlock, Blocks: blocks, WarmLaps: sp.warmLaps, YardstickNS: yardstickNominalNS,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print its result as the last line (default: every workload, untraced then traced)")
		seed      = flag.Int64("seed", 1, "workload seed: decides every generated update")
		seconds   = flag.Float64("seconds", runSeconds, "length of the timed window; scales the lap count, never the lap")
		trace     = flag.String("trace", "", "0 = end-to-end metrics with tracing off, 1 = traced pass with the per-layer metrics (default with -workload: 0)")
		out       = flag.String("out", ".bench_build/trace", "directory the traced pass writes its span file to")
		aa        = flag.Bool("aa", false, "run the untraced suite twice in alternation and report the spread of every end-to-end metric against its bound")
		aaRuns    = flag.Int("aa-runs", 3, "runs per side in -aa mode (at least 3)")
		catalogue = flag.Bool("catalogue", false, "print BENCHMARK.json as the catalogue in this binary defines it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected argument %q", flag.Arg(0))
	}
	traced := false
	switch *trace {
	case "", "0":
	case "1":
		traced = true
	default:
		fatalf(2, "-trace takes 0 or 1, got %q", *trace)
	}

	switch {
	case *catalogue:
		os.Stdout.Write(benchmarkJSON())
	case *aa:
		os.Exit(runAA(*seed, *seconds, max(3, *aaRuns)))
	case *workload == "":
		os.Exit(runSuite(*seed, *seconds, *out, *trace))
	default:
		sp, err := specByName(*workload)
		if err != nil {
			fatalf(2, "%v", err)
		}
		os.Exit(runOne(sp, runOpts{seed: *seed, seconds: *seconds, trace: traced, outDir: *out, scale: 1}))
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// runOne runs one workload in this process and prints its metrics: a
// table for people, then the result line. It returns the exit code: 0,
// 1 when an answer check or an operation failed, 3 when a regime
// assertion or counter identity did (in which case no metric is
// printed).
func runOne(sp *spec, o runOpts) int {
	// One processor: the producer, the shard workers and the fleet's
	// connection handlers take turns on it. This host's two CPUs are
	// shares of a busy machine — with two threads runnable at once a
	// quarter of all 3 ms slices of pure arithmetic take twice as long on
	// the wall clock (their CPU time does not move), with one they do
	// not — so a run that keeps both busy measures the host's scheduler.
	runtime.GOMAXPROCS(1)
	prov, _ := json.Marshal(newProvenance(sp, o))
	fmt.Printf("provenance %s\n", prov)
	run := runEngine
	if sp.fleet {
		run = runFleet
	}
	res, err := run(sp, o)
	var inv *invalidRun
	if errors.As(err, &inv) {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 3
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r := result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  trace %v\n", sp.name, o.seed, o.trace)
	for _, d := range defs {
		v := res.metrics[d.Name]
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  may worsen by %g of the parent's median", d.Bound)
		}
		fmt.Printf("  %-36s %16.6g %-10s %s is better%s\n", d.Name, v, d.Unit, d.Better, bound)
	}
	for _, n := range res.notes {
		fmt.Printf("  note: %s\n", n)
	}
	if res.tracePath != "" {
		fmt.Printf("  trace written to %s\n", res.tracePath)
	}
	fmt.Printf("  failed_ops_share %d / %d\n", res.failed, res.attempted)
	line, _ := json.Marshal(r)
	fmt.Printf("%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process — the way the driver runs
// it — echoing what it prints and returning its result line and the
// provenance line.
func child(workload string, seed int64, seconds float64, trace string, out string, echo bool) (*result, *provenance, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", out)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var prov provenance
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "provenance "); ok {
			_ = json.Unmarshal([]byte(rest), &prov) // a provenance line this binary printed
		} else if echo && !strings.HasPrefix(l, "{") {
			fmt.Println(l)
		}
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return nil, &prov, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, &prov, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &r, &prov, nil
}

// runSuite is the one command: every workload with tracing off, then a
// traced pass of each, every metric printed by name.
func runSuite(seed int64, seconds float64, out, trace string) int {
	passes := []string{"0", "1"}
	if trace != "" {
		passes = []string{trace}
	}
	code := 0
	for _, pass := range passes {
		for _, sp := range specs {
			r, prov, err := child(sp.name, seed, seconds, pass, out, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if sp == specs[0] && pass == passes[0] {
				p, _ := json.MarshalIndent(prov, "", "  ")
				fmt.Printf("provenance (first run): %s\n", p)
			}
			if !r.Correct {
				fmt.Printf("  FAILED CHECK: %d of %d operations failed\n", r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}

// runAA runs the untraced suite as two sets, A and B, alternating run
// by run, and reports for every end-to-end metric of every workload
// both medians, the quartiles and the relative spread against the
// metric's bound.
func runAA(seed int64, seconds float64, runs int) int {
	type key struct{ workload, metric, side string }
	vals := map[key][]float64{}
	cutovers := map[string]bool{}
	for i := 0; i < runs; i++ {
		for _, side := range []string{"A", "B"} {
			for _, sp := range specs {
				r, prov, err := child(sp.name, seed, seconds, "0", ".bench_build/trace", false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if !r.Correct {
					fmt.Printf("%s run %d%s: %d of %d operations failed\n", sp.name, i, side, r.Failed, r.Attempted)
				}
				c, _ := json.Marshal(prov.Cutovers)
				cutovers[string(c)] = true
				for name, mv := range r.Metrics {
					vals[key{sp.name, name, side}] = append(vals[key{sp.name, name, side}], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: %s run %d%s done\n", sp.name, i, side)
			}
		}
	}
	fmt.Printf("A/A: %d runs per side, seed %d, %g s windows\n", runs, seed, seconds)
	if len(cutovers) > 1 {
		var cs []string
		for c := range cutovers {
			cs = append(cs, c)
		}
		sort.Strings(cs)
		fmt.Printf("self-calibrated kernel cutovers DIFFERED between runs: %s\n", strings.Join(cs, " | "))
	} else {
		for c := range cutovers {
			fmt.Printf("self-calibrated kernel cutovers were the same in every run: %s\n", c)
		}
	}
	code := 0
	fmt.Printf("%-16s %-22s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "B worse", "spread", "bound", "verdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			a, b := vals[key{sp.name, d.Name, "A"}], vals[key{sp.name, d.Name, "B"}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sprd := spread(append(append([]float64(nil), a...), b...))
			verdict := "ok"
			if worse > d.Bound {
				verdict = "B WORSE THAN A BEYOND THE BOUND"
				code = 1
			} else if sprd > d.Bound && d.Name != "setup_s" {
				verdict = "SPREAD BEYOND THE BOUND"
				code = 1
			} else if sprd > d.Bound/3 && d.Name != "setup_s" {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-16s %-22s %12.6g %12.6g %+7.2f%% %7.2f%% %6.0f%%  %s\n", sp.name, d.Name, ma, mb, 100*worse, 100*sprd, 100*d.Bound, verdict)
		}
	}
	return code
}

// benchmarkJSON renders BENCHMARK.json from the catalogue.
func benchmarkJSON() []byte {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd,
	}
	for _, s := range specs {
		doc.Workloads = append(doc.Workloads, workloadDoc{s.name, s.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}
