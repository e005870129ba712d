// Package shard provides the single-writer worker that the sharded
// ingest engine (package engine) builds on. Every sketch in this
// library is single-goroutine by design — updates and queries share
// per-structure scratch — so parallel ingest means partitioning the
// stream across S structures, each owned by exactly one goroutine.
//
// A Worker owns one such structure set. It consumes columnar batches
// (core.Batch: the engine partitions incoming updates by computing
// every update's shard key in one batch hash evaluation, then
// scattering indices and deltas into per-shard columns) from a bounded
// channel (the bound IS the backpressure: when a shard falls behind,
// senders block instead of queueing unbounded memory) and executes
// closures in the owner goroutine between batches, which gives callers
// three primitives for free:
//
//   - a flush barrier: Do(func(){}) returns only after every batch sent
//     before it has been applied,
//   - race-free snapshots: Do(func(){ snap = structures.Clone() }) runs
//     serialized with ingest, so queries never observe a torn sketch, and
//   - snapshot-free point queries: Do(func(){ v = structures.Query(i) })
//     reads the live structure between batches — no clone, no merge.
//
// The worker deliberately knows nothing about which structures it
// feeds: it moves batches and closures, the engine supplies the
// Ingester.
package shard

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Ingester consumes pre-planned columnar batches. The engine's
// per-shard structure set implements it by fanning each batch to every
// enabled sketch; each sketch hashes the shared index column with its
// own batch evaluators and applies the columns to its counters.
type Ingester interface {
	UpdateColumns(b *core.Batch)
}

// message is one unit of work: exactly one of batch or do is set.
type message struct {
	batch *core.Batch
	do    func()
	done  chan struct{}
}

// Metrics is a worker's observability cell block: per-worker counters
// written only by the owner goroutine (apply side) or the sending
// goroutine (stall side). Each obs.Counter is cache-line padded, so
// adjacent workers' metrics never false-share.
type Metrics struct {
	// BatchesApplied and KeysApplied count work the owner goroutine has
	// finished applying (a flush barrier makes them exact totals).
	BatchesApplied obs.Counter
	KeysApplied    obs.Counter
	// BusyNanos accumulates time the owner goroutine spent inside
	// UpdateColumns — occupancy = BusyNanos / wall time.
	BusyNanos obs.Counter
	// SendStalls counts Sends that found the inbox full and had to
	// block — the backpressure signal.
	SendStalls obs.Counter
}

// Worker is a single-writer shard: one goroutine, one Ingester, one
// bounded inbox.
type Worker struct {
	in      chan message
	wg      sync.WaitGroup
	recycle func(*core.Batch)
	m       Metrics
}

// New starts a worker goroutine that feeds ing. queue is the inbox
// depth in batches (minimum 1) — the backpressure window. recycle, if
// non-nil, receives each batch after it has been applied so the caller
// can pool buffers; the worker never touches a batch afterwards.
func New(ing Ingester, queue int, recycle func(*core.Batch)) *Worker {
	return NewNamed(ing, queue, recycle, "")
}

// NewNamed is New with an observability name: when non-empty, the
// worker goroutine labels itself with the pprof label shard=name (CPU
// profiles attribute samples per shard) and wraps each batch apply in
// the execution-trace region "shard.apply" so `go tool trace` shows
// per-shard apply spans.
func NewNamed(ing Ingester, queue int, recycle func(*core.Batch), name string) *Worker {
	if queue < 1 {
		queue = 1
	}
	w := &Worker{in: make(chan message, queue), recycle: recycle}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		if name != "" {
			obs.LabelGoroutine("shard", name)
		}
		ctx := context.Background()
		for m := range w.in {
			if m.batch != nil {
				start := obs.Now()
				span := obs.StartRegion(ctx, "shard.apply")
				ing.UpdateColumns(m.batch)
				span.End()
				w.m.BusyNanos.Add(obs.Now() - start)
				w.m.BatchesApplied.Inc()
				w.m.KeysApplied.Add(int64(m.batch.Len()))
				if w.recycle != nil {
					w.recycle(m.batch)
				}
			}
			if m.do != nil {
				m.do()
				close(m.done)
			}
		}
	}()
	return w
}

// Metrics returns the worker's counters; readers may load them at any
// time (quiesce with a flush barrier first for exact totals).
func (w *Worker) Metrics() *Metrics { return &w.m }

// QueueDepth reports the number of messages waiting in the inbox right
// now; QueueCap its bound. Depth ≈ cap sustained means the shard is the
// bottleneck and senders are stalling.
func (w *Worker) QueueDepth() int { return len(w.in) }

// QueueCap reports the inbox bound.
func (w *Worker) QueueCap() int { return cap(w.in) }

// Send hands a columnar batch to the worker, transferring ownership.
// It blocks while the inbox is full — the backpressure that keeps a
// slow shard from accumulating unbounded queued batches. Each Send
// that finds the inbox full counts one stall in Metrics.
func (w *Worker) Send(b *core.Batch) {
	if b == nil || b.Len() == 0 {
		if b != nil && w.recycle != nil {
			w.recycle(b)
		}
		return
	}
	msg := message{batch: b}
	// Try-then-block: the fast path is one select that succeeds
	// immediately; only a full inbox pays the second (blocking) send,
	// and that Send was going to block anyway.
	select {
	case w.in <- msg:
		return
	default:
		w.m.SendStalls.Inc()
	}
	w.in <- msg
}

// Do runs f in the worker goroutine after every previously sent batch
// has been applied, and returns once f has run. With f == nil it is a
// pure flush barrier.
func (w *Worker) Do(f func()) {
	if f == nil {
		f = func() {}
	}
	done := make(chan struct{})
	w.in <- message{do: f, done: done}
	<-done
}

// DoAsync enqueues f like Do but returns immediately with the channel
// that closes when f has run — the fan-out form used to snapshot many
// shards concurrently.
func (w *Worker) DoAsync(f func()) <-chan struct{} {
	if f == nil {
		f = func() {}
	}
	done := make(chan struct{})
	w.in <- message{do: f, done: done}
	return done
}

// Close stops the worker after draining every queued message and waits
// for the goroutine to exit. The Worker must not be used afterwards.
func (w *Worker) Close() {
	close(w.in)
	w.wg.Wait()
}
