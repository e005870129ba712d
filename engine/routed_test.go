package engine

import (
	"errors"
	"runtime"
	"testing"

	bounded "repro"
)

// routedReads is the table of the engine's five routed (snapshot-free)
// reads, each reduced to "run it once against this key set".
var routedReads = []struct {
	name string
	call func(e *Engine, keys []uint64) error
}{
	{"Estimate", func(e *Engine, keys []uint64) error { _, err := e.Estimate(keys[0]); return err }},
	{"EstimateBatch", func(e *Engine, keys []uint64) error { _, err := e.EstimateBatch(keys); return err }},
	{"Probe", func(e *Engine, keys []uint64) error { _, err := e.Probe(keys[0]); return err }},
	{"ProbeBatch", func(e *Engine, keys []uint64) error { _, err := e.ProbeBatch(keys); return err }},
	{"Support", func(e *Engine, _ []uint64) error { _, err := e.Support(); return err }},
}

// routedTestKeys is past estimateBatchCutover, so EstimateBatch takes
// the planned fan-out rather than the per-index loop.
func routedTestKeys() []uint64 {
	keys := make([]uint64, 4*estimateBatchCutover)
	for j := range keys {
		keys[j] = uint64(j * 37)
	}
	return keys
}

// TestRoutedReadsShareOneSequence drives all five routed reads through
// the contract routedRead gives them: a disabled structure is
// ErrNotEnabled, a closed engine is an error, a read in flight holds
// Flush and Close back until it has finished, and none of it ever
// builds a merged view.
func TestRoutedReadsShareOneSequence(t *testing.T) {
	keys := routedTestKeys()
	var updates []bounded.Update
	for _, k := range keys {
		updates = append(updates, bounded.Update{Index: k, Delta: 2})
	}

	for _, rd := range routedReads {
		t.Run(rd.name+"/not-enabled", func(t *testing.T) {
			e := must(New(testCfg, Options{Shards: 2, Structures: L1Estimator}))
			defer e.Close()
			if err := rd.call(e, keys); !errors.Is(err, ErrNotEnabled) {
				t.Fatalf("on an engine without the structure: %v, want ErrNotEnabled", err)
			}
		})
		t.Run(rd.name+"/closed", func(t *testing.T) {
			e := must(New(testCfg, Options{Shards: 2, Structures: HeavyHitters | SupportSampler}))
			e.Close()
			if err := rd.call(e, keys); err == nil || errors.Is(err, ErrNotEnabled) {
				t.Fatalf("on a closed engine: %v, want a closed-engine error", err)
			}
		})
		for _, barrier := range []struct {
			name string
			call func(*Engine) error
		}{{"Flush", (*Engine).Flush}, {"Close", (*Engine).Close}} {
			t.Run(rd.name+"/in-flight-before-"+barrier.name, func(t *testing.T) {
				// Fewer updates than BatchSize: everything is still in the
				// pending buffers, so the read has a hand-off to make.
				e := must(New(testCfg, Options{Shards: 2, Queue: 1, Structures: HeavyHitters | SupportSampler}))
				defer e.Close()
				if err := e.Ingest(updates); err != nil {
					t.Fatal(err)
				}
				// Park every shard goroutine on a gate, so the read's
				// pending run fills the owner's one-slot inbox and the
				// read, registered as in flight, blocks queueing its
				// closure behind it.
				gate := make(chan struct{})
				for _, w := range e.workers {
					parked := make(chan struct{})
					w.DoAsync(func() { close(parked); <-gate })
					<-parked
				}
				readErr := make(chan error, 1)
				go func() { readErr <- rd.call(e, keys) }()
				// The read hands its owner's pending run off under e.mu;
				// seeing that buffer empty under e.mu means the read has
				// registered with inflight and released the lock.
				owner := e.ShardOf(keys[0])
				for inFlight := false; !inFlight; runtime.Gosched() {
					e.mu.Lock()
					inFlight = e.pending[owner].Len() == 0
					e.mu.Unlock()
				}
				barrierErr := make(chan error, 1)
				go func() { barrierErr <- barrier.call(e) }()
				// Flush and Close hold e.mu for their whole run; once it
				// is taken, the barrier is waiting on the read.
				for e.mu.TryLock() {
					e.mu.Unlock()
					runtime.Gosched()
				}
				close(gate)
				if err := <-barrierErr; err != nil {
					t.Fatalf("%s: %v", barrier.name, err)
				}
				// routedRead records its metrics before it leaves
				// inflight, so a barrier that waited sees the read counted.
				st := e.Stats()
				if st.PointQueries+st.BatchedQueries != 1 {
					t.Fatalf("%s returned with %d routed reads finished, want 1 (it must wait for the read in flight)",
						barrier.name, st.PointQueries+st.BatchedQueries)
				}
				if err := <-readErr; err != nil {
					t.Fatalf("read in flight across %s: %v", barrier.name, err)
				}
				if n := e.Stats().SnapshotBuilds; n != 0 {
					t.Fatalf("routed read built %d merged views, want 0", n)
				}
			})
		}
	}
}
