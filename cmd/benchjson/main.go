// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI gates (allocation-free update paths, calibration
// provenance, the batched point-query ratio) read fields instead of
// scraping logs. It is not the benchmark: that is bench/ — see
// bench/README.md and BENCHMARK.json.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkFig1' -benchmem | go run ./cmd/benchjson -out BENCH_1.ci.json
//	go run ./cmd/benchjson -in bench.txt -out BENCH_1.ci.json
//
// Each benchmark line has the shape
//
//	BenchmarkName[-procs]  <iterations>  <value> <unit>  [<value> <unit> ...]
//
// and every value/unit pair is preserved under metrics, so custom
// b.ReportMetric series (recall/alpha, bits/base, ...) ride along with
// ns/op, B/op and allocs/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/hash"
	"repro/internal/obs"
)

// goamd64 reports the amd64 microarchitecture level this binary was
// built for — GOAMD64 if set, else the v1 floor — and nothing on other
// architectures. The benchmarked test binaries are built with the same
// toolchain defaults, so the level applies to the numbers too.
func goamd64() string {
	if runtime.GOARCH != "amd64" {
		return ""
	}
	if v := os.Getenv("GOAMD64"); v != "" {
		return v
	}
	return "v1"
}

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the document benchjson emits.
type Report struct {
	Note string `json:"note"`
	GoOS string `json:"goos,omitempty"`
	// GoArch is the compile-time architecture; GoAMD64 the amd64
	// microarchitecture level the binary was built for (GOAMD64, v1
	// when unset) — kernel numbers are only comparable at the same
	// level.
	GoArch  string `json:"goarch,omitempty"`
	GoAMD64 string `json:"goamd64,omitempty"`
	// CPUFeatures and Kernels record what THIS host dispatched:
	// the detected feature set ("avx2", empty when the scalar path
	// ran) and every kernel table the build could select. Benchmarks
	// parameterized by kernel= sub-names carry the per-table numbers;
	// these fields say which table un-parameterized numbers used.
	CPUFeatures string   `json:"cpu_features,omitempty"`
	Kernels     []string `json:"kernels,omitempty"`
	// KernelCutovers records the per-family scalar-vs-vector cutovers
	// (total keys per dispatch) the benchmarked binary ran with, and
	// CutoverSource where they came from: "calibrated" (init-time
	// microprobe on this host), "env" (BD_KERNEL_CUTOVER override), or
	// "default" (no vector kernels registered, bar never consulted).
	// Run benchjson on the same host as the benchmarks so the recorded
	// calibration describes the numbers it sits next to.
	KernelCutovers map[string]int `json:"kernel_cutovers,omitempty"`
	CutoverSource  string         `json:"cutover_source,omitempty"`
	// ObsEnabled records whether THIS converter binary was built with
	// the observability layer compiled in (false under -tags noobs).
	// Build benchjson with the same tags as the benchmarked test binary
	// so the flag describes the numbers it sits next to.
	ObsEnabled bool        `json:"obs_enabled"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "input file (default stdin)")
	out := flag.String("out", "", "output file (default stdout)")
	note := flag.String("note", "go test -bench baseline", "free-form provenance note")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	report, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	report.Note = *note
	report.GoAMD64 = goamd64()
	report.CPUFeatures = hash.CPUFeatures()
	report.Kernels = hash.AvailableKernels()
	report.KernelCutovers = hash.KernelCutovers()
	report.CutoverSource = hash.KernelCutoverSource()
	report.ObsEnabled = obs.Enabled

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// Parse reads `go test -bench` output and collects every benchmark line
// plus the goos/goarch/pkg header when present.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseLine(line)
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found")
	}
	return rep, nil
}

// parseLine parses one "BenchmarkX-8  N  v unit  v unit ..." line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the -procs suffix if it is numeric.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
