package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metric readbacks and renders them on demand.
// Registration stores a closure, not a value: the registry reads
// whatever the metric reports at scrape time, so live structures
// (queue depths, histogram state) need no push step. Registration is
// cheap and scrape-time-only — nothing on the recording hot path ever
// touches the registry or its mutex.
type Registry struct {
	mu      sync.Mutex
	metrics []*metricEntry
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

type metricEntry struct {
	name   string
	help   string
	owner  string
	kind   metricKind
	labels []Label
	value  func() int64             // counter / gauge
	hist   func() HistogramSnapshot // histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry: package-level metrics (the
// columnar arena, the kernel dispatch table) register here at init, and
// Handler() serves it. Engines expose their per-instance metrics into
// it (or into a private registry) via engine.ExposeMetrics.
var Default = NewRegistry()

// validName enforces the Prometheus metric-name grammar on
// registration, where a typo is a programming error worth a panic —
// not silently unscrapable output.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(e *metricEntry) {
	if !validName(e.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", e.name))
	}
	r.mu.Lock()
	r.metrics = append(r.metrics, e)
	r.mu.Unlock()
}

// CounterFunc registers a counter readback. owner groups metrics for
// RemoveOwner ("" for process-lifetime metrics that never unregister).
func (r *Registry) CounterFunc(owner, name, help string, f func() int64, labels ...Label) {
	r.register(&metricEntry{name: name, help: help, owner: owner, kind: counterKind, labels: labels, value: f})
}

// GaugeFunc registers a gauge readback.
func (r *Registry) GaugeFunc(owner, name, help string, f func() int64, labels ...Label) {
	r.register(&metricEntry{name: name, help: help, owner: owner, kind: gaugeKind, labels: labels, value: f})
}

// HistogramFunc registers a histogram readback.
func (r *Registry) HistogramFunc(owner, name, help string, f func() HistogramSnapshot, labels ...Label) {
	r.register(&metricEntry{name: name, help: help, owner: owner, kind: histogramKind, labels: labels, hist: f})
}

// RemoveOwner unregisters every metric registered under owner — how an
// engine withdraws its per-instance metrics on Close so a long-lived
// scrape surface does not accumulate dead instances.
func (r *Registry) RemoveOwner(owner string) {
	if owner == "" {
		return
	}
	r.mu.Lock()
	kept := r.metrics[:0]
	for _, e := range r.metrics {
		if e.owner != owner {
			kept = append(kept, e)
		}
	}
	// Nil the tail so dropped entries (and their closures) release.
	for i := len(kept); i < len(r.metrics); i++ {
		r.metrics[i] = nil
	}
	r.metrics = kept
	r.mu.Unlock()
}

// snapshotEntries copies the entry list so rendering iterates without
// holding the lock (readback closures may themselves take locks).
func (r *Registry) snapshotEntries() []*metricEntry {
	r.mu.Lock()
	out := make([]*metricEntry, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelString(out[i].labels) < labelString(out[j].labels)
	})
	return out
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringWith renders labels plus one extra pair — the histogram
// bucket `le` label.
func labelStringWith(labels []Label, key, value string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: key, Value: value})
	return labelString(all)
}

// WriteMetrics renders the registry in the Prometheus text exposition
// format (text/plain; version 0.0.4). Histograms render cumulative
// `le` buckets with bounds in seconds, plus _sum (seconds) and _count.
func (r *Registry) WriteMetrics(w io.Writer) error {
	lastHeader := ""
	for _, e := range r.snapshotEntries() {
		if e.name != lastHeader {
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
				return err
			}
			lastHeader = e.name
		}
		switch e.kind {
		case counterKind, gaugeKind:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", e.name, labelString(e.labels), e.value()); err != nil {
				return err
			}
		case histogramKind:
			s := e.hist()
			var cum int64
			for i, c := range s.Buckets {
				cum += c
				if c == 0 && i != NumHistBuckets-1 {
					continue // sparse output: emit only occupied buckets (+Inf always)
				}
				le := "+Inf"
				if i != NumHistBuckets-1 {
					le = strconv.FormatFloat(float64(HistBucketBound(i))/1e9, 'g', -1, 64)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, labelStringWith(e.labels, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", e.name, labelString(e.labels), float64(s.Sum)/1e9); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", e.name, labelString(e.labels), s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonMetric is the machine-readable scrape form (?format=json): one
// entry per metric, histograms carried whole.
type jsonMetric struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  *int64            `json:"value,omitempty"`
	Hist   *jsonHistogram    `json:"histogram,omitempty"`
}

type jsonHistogram struct {
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	Buckets []int64 `json:"buckets"` // log2 ns buckets, index = bits.Len64(ns)
}

// WriteJSON renders the registry as a JSON array — the expvar-style
// consumption path for tooling that does not speak Prometheus text.
func (r *Registry) WriteJSON(w io.Writer) error {
	var out []jsonMetric
	for _, e := range r.snapshotEntries() {
		m := jsonMetric{Name: e.name, Kind: e.kind.String()}
		if len(e.labels) > 0 {
			m.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case counterKind, gaugeKind:
			v := e.value()
			m.Value = &v
		case histogramKind:
			s := e.hist()
			m.Hist = &jsonHistogram{Count: s.Count, SumNs: s.Sum, Buckets: s.Buckets[:]}
		}
		out = append(out, m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns the HTTP exposition handler for this registry:
// Prometheus text by default, JSON with ?format=json (or an
// application/json Accept header). Mount it wherever the service
// exposes diagnostics, e.g. http.Handle("/metrics", reg.Handler()).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteMetrics(w)
	})
}

// Handler returns the exposition handler of the Default registry — the
// one-liner services mount: http.Handle("/metrics", obs.Handler()).
func Handler() http.Handler { return Default.Handler() }
