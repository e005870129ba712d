package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistBucketMath(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{int64(1) << 50, NumHistBuckets - 1},
	}
	for _, c := range cases {
		if got := histBucket(c.ns); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for i := 0; i < NumHistBuckets; i++ {
		if HistBucketBound(i) != int64(1)<<uint(i) {
			t.Fatalf("HistBucketBound(%d) = %d", i, HistBucketBound(i))
		}
	}
}

func TestHistogramSnapshotStats(t *testing.T) {
	var s HistogramSnapshot
	if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.String() != "count=0" {
		t.Fatalf("empty snapshot: mean=%v q50=%v str=%q", s.Mean(), s.Quantile(0.5), s.String())
	}
	// 3 observations at ~100ns (bucket 7, bound 128) and 1 at ~1ms
	// (bucket 20, bound ~1.05ms).
	s.Count = 4
	s.Sum = 3*100 + 1_000_000
	s.Buckets[histBucket(100)] = 3
	s.Buckets[histBucket(1_000_000)] = 1
	if got := s.Mean(); got != time.Duration(s.Sum/4) {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Quantile(0.5); got != time.Duration(128) {
		t.Errorf("Quantile(0.5) = %v, want 128ns", got)
	}
	if got := s.Quantile(0.99); got != time.Duration(HistBucketBound(histBucket(1_000_000))) {
		t.Errorf("Quantile(0.99) = %v", got)
	}
	if !strings.HasPrefix(s.String(), "count=4 ") {
		t.Errorf("String = %q", s.String())
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	h.Observe(100)
	h.ObserveSince(Now() - 1000)
	if got := c.Load(); got != 5 {
		t.Errorf("Counter.Load = %d, want 5", got)
	}
	if got := g.Load(); got != 5 {
		t.Errorf("Gauge.Load = %d, want 5", got)
	}
	s := h.Snapshot()
	if s.Count != 2 || s.Sum < 1100 {
		t.Errorf("Histogram snapshot = %+v", s)
	}
}

// TestConcurrentRecording hammers one counter and one histogram from
// many goroutines; under -race this validates the lock-free recording
// contract, and the totals are exact.
func TestConcurrentRecording(t *testing.T) {
	const workers = 8
	const perWorker = 10_000
	var c Counter
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(seed + int64(i)%1000)
			}
		}(int64(w))
	}
	// Concurrent readers while writers run.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Load()
				_ = h.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.Load(); got != workers*perWorker {
		t.Errorf("Counter.Load = %d, want %d", got, workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("Histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	var h Histogram
	c.Add(42)
	g.Set(3)
	h.Observe(100)
	r.CounterFunc("e1", "repro_test_total", "a test counter", c.Load, Label{"shard", "0"})
	r.GaugeFunc("e1", "repro_test_depth", "a test gauge", g.Load)
	r.HistogramFunc("e1", "repro_test_latency", "a test histogram", h.Snapshot)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE repro_test_total counter",
		`repro_test_total{shard="0"} 42`,
		"repro_test_depth 3",
		"# TYPE repro_test_latency histogram",
		`repro_test_latency_bucket{le="+Inf"} 1`,
		"repro_test_latency_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("text exposition missing %q in:\n%s", want, body)
		}
	}

	// JSON flavor.
	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("json content-type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), `"repro_test_total"`) {
		t.Errorf("json exposition missing counter: %s", rec.Body.String())
	}

	// RemoveOwner withdraws everything registered under e1.
	r.RemoveOwner("e1")
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "repro_test_total") {
		t.Error("RemoveOwner left metrics registered")
	}
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid metric name")
		}
	}()
	NewRegistry().CounterFunc("", "bad name!", "", func() int64 { return 0 })
}

func TestTraceHelpersNoTrace(t *testing.T) {
	// Tracing is not active in tests; the helpers must be safe no-ops.
	task := StartTask(context.Background(), "t")
	span := StartRegion(task.Context(), "r")
	span.End()
	task.End()
	var zero Span
	zero.End()
	LabelGoroutine("k", "v")
}
