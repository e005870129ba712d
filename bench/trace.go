package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Start and End are nanoseconds since the
// tracer's epoch; Parent indexes the track's span list (-1 = root);
// Lap is the lap or round the call belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Lap    int    `json:"lap"`
}

// track is the span list of one goroutine. A nil *track records
// nothing, so untraced laps pay one nil check per call.
type track struct {
	Name  string `json:"name"`
	Spans []span `json:"spans"`
	epoch time.Time
}

func newTrack(name string, epoch time.Time) *track {
	return &track{Name: name, epoch: epoch}
}

// begin opens a span and returns its index, or -1 on a nil track.
func (t *track) begin(name string, parent, lap int) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Lap: lap})
	return len(t.Spans) - 1
}

func (t *track) end(id int) {
	if t != nil {
		t.Spans[id].End = int64(time.Since(t.epoch))
	}
}

// durations returns the length in seconds of every span called name.
func (t *track) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.Spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTime is one span name's row of the ledger: how often it ran, its
// total time, and the part of that time no child span covers.
type selfTime struct {
	Calls   int   `json:"calls"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// ledger sums, per span name, total time and self time (a span minus
// its direct children).
func ledger(tracks ...*track) map[string]selfTime {
	out := map[string]selfTime{}
	for _, t := range tracks {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.Spans))
		for _, s := range t.Spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.Spans {
			row := out[s.Name]
			row.Calls++
			row.TotalNS += s.End - s.Start
			row.SelfNS += s.End - s.Start - child[i]
			out[s.Name] = row
		}
	}
	return out
}

// traceFile is what a traced run writes under -out when it ends.
type traceFile struct {
	Provenance provenance          `json:"provenance"`
	Workload   string              `json:"workload"`
	Ledger     map[string]selfTime `json:"ledger"`
	Counters   map[string]float64  `json:"counters"`
	Tracks     []*track            `json:"tracks"`
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", tf.Workload, tf.Provenance.WorkloadSeed))
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
