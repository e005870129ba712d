// Command bdaggd is the aggregation daemon: it accepts site agents
// (cmd/bdagent) over TCP, keeps every agent's latest full sketch
// snapshot, and answers point/heavy-hitter/L1/support queries for the
// merged union stream. Agents are admitted only when their sketch
// Config matches exactly (same seed, so the sketches are built with the
// same hash functions and merge linearly).
//
// Usage:
//
//	go run ./cmd/bdaggd -listen :7600 -structures hh,l1,support
//	go run ./cmd/bdaggd -listen :7600 -metrics :9090   # plus /metrics
//	go run ./cmd/bdaggd -listen :7600 -checkpoint /var/lib/bdaggd
//
// With -metrics, the aggregator's observability surface (connections,
// frames, bytes, snapshot outcomes, merge latency, per-agent
// staleness, checkpoint write/load latency) is served as Prometheus
// text on /metrics, JSON with ?format=json.
//
// With -checkpoint, the per-agent state table is written to the given
// directory (atomically, CRC-guarded, every -checkpoint-every while
// state moves) and recovered on restart: the daemon answers queries
// from disk immediately, and reconnecting agents whose state is
// unchanged resume incremental sync instead of resending everything.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/netagg"
	"repro/internal/obs"
)

var (
	listen     = flag.String("listen", ":7600", "agent/client listen address")
	metrics    = flag.String("metrics", "", "serve /metrics on this address (empty = off)")
	n          = flag.Uint64("n", 1<<16, "universe size")
	eps        = flag.Float64("eps", 0.05, "heavy hitter threshold eps")
	alpha      = flag.Float64("alpha", 4, "alpha-property bound")
	seed       = flag.Int64("seed", 7, "sketch seed (must match every agent)")
	structures = flag.String("structures", "hh,l1,support", "accepted sketch set ("+engine.StructureNames()+")")
	idle       = flag.Duration("idle-timeout", 0, "drop connections idle for this long (0 = never)")
	statsEvery = flag.Duration("stats", time.Minute, "log a stats line this often (0 = never)")

	checkpoint      = flag.String("checkpoint", "", "checkpoint directory (empty = not durable); on restart the per-agent state is recovered from it")
	checkpointEvery = flag.Duration("checkpoint-every", time.Second, "background checkpoint interval")
	checkpointKeep  = flag.Int("checkpoint-keep", 3, "checkpoints retained on disk")
)

func main() {
	flag.Parse()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	structs, err := engine.ParseStructures(*structures)
	if err != nil {
		logf("bdaggd: %v", err)
		os.Exit(2)
	}
	agg, err := netagg.NewAggregator(netagg.AggregatorOptions{
		Config:          bounded.Config{N: *n, Eps: *eps, Alpha: *alpha, Seed: *seed},
		Structures:      structs,
		IdleTimeout:     *idle,
		CheckpointDir:   *checkpoint,
		CheckpointEvery: *checkpointEvery,
		CheckpointKeep:  *checkpointKeep,
		Logf:            logf,
	})
	if err != nil {
		logf("bdaggd: %v", err)
		os.Exit(2)
	}
	if *checkpoint != "" {
		st := agg.Stats()
		logf("bdaggd: checkpointing to %s every %s (recovered %d agents)",
			*checkpoint, *checkpointEvery, st.RecoveredAgents)
	}

	if *metrics != "" {
		agg.ExposeMetrics(obs.Default, "bdaggd")
		go func() {
			http.Handle("/metrics", obs.Handler())
			logf("bdaggd: metrics on http://%s/metrics", *metrics)
			if err := http.ListenAndServe(*metrics, nil); err != nil {
				logf("bdaggd: metrics server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logf("bdaggd: %v", err)
		os.Exit(1)
	}
	logf("bdaggd: listening on %s (structures %s, n=%d eps=%g alpha=%g seed=%d)",
		ln.Addr(), *structures, *n, *eps, *alpha, *seed)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := agg.Stats()
				logf("bdaggd: agents=%d applied=%d stale=%d rejected=%d queries=%d framesIn=%d bytesIn=%d",
					len(st.Agents), st.SnapshotsApplied, st.SnapshotsStale,
					st.SnapshotsRejected, st.QueriesServed, st.FramesIn, st.BytesIn)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logf("bdaggd: shutting down")
		agg.Close()
	}()

	if err := agg.Serve(ln); err != nil {
		logf("bdaggd: serve: %v", err)
		os.Exit(1)
	}
	st := agg.Stats()
	logf("bdaggd: served %d conns, committed %d snapshots, answered %d queries",
		st.ConnsOpened, st.SnapshotsApplied, st.QueriesServed)
}
