// Command bdagent is a site agent: it ingests a local
// bounded-deletion stream through the sharded columnar engine and
// periodically ships full engine-merged snapshots to a bdaggd
// aggregator, skipping any sync tick on which the engine generation
// has not moved since the last acknowledged snapshot.
//
// Two ingest modes:
//
//	bdgen -kind bounded | go run ./cmd/bdagent -id site-a -aggregator :7600
//	go run ./cmd/bdagent -id gen-1 -aggregator :7600 -synthetic -updates 1000000
//
// Stdin mode reads "index delta" pairs (cmd/bdgen's output format;
// '#' lines are comments) and syncs on the -interval timer plus once
// at EOF. -synthetic runs the built-in load generator instead — a
// zipf-user bounded-deletion workload — syncing every -sync-every
// batches, and prints a throughput report; it is the load-generator
// client for capacity-testing an aggregator.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/netagg"
	"repro/internal/obs"
)

var (
	id         = flag.String("id", "", "agent id (required; aggregator keys state by it)")
	aggregator = flag.String("aggregator", "127.0.0.1:7600", "bdaggd address")
	n          = flag.Uint64("n", 1<<16, "universe size")
	eps        = flag.Float64("eps", 0.05, "heavy hitter threshold eps")
	alpha      = flag.Float64("alpha", 4, "alpha-property bound")
	seed       = flag.Int64("seed", 7, "sketch seed (must match the aggregator)")
	structures = flag.String("structures", "hh,l1,support", "sketches to maintain and ship ("+engine.StructureNames()+")")
	shards     = flag.Int("shards", 0, "engine shards (0 = one per CPU, or the checkpoint's count when restoring from -checkpoint)")
	interval   = flag.Duration("interval", 500*time.Millisecond, "snapshot sync interval")
	metrics    = flag.String("metrics", "", "serve /metrics on this address (empty = off)")
	batch      = flag.Int("batch", 1024, "ingest batch size")
	checkpoint = flag.String("checkpoint", "", "checkpoint directory (empty = not durable); on restart the engine is restored from it instead of replaying the stream")

	synthetic  = flag.Bool("synthetic", false, "generate load instead of reading stdin")
	updates    = flag.Int("updates", 1_000_000, "synthetic: total updates")
	users      = flag.Int("users", 64, "synthetic: simulated sources")
	deleteFrac = flag.Float64("delete-frac", 0.3, "synthetic: delete fraction")
	zipf       = flag.Float64("zipf", 1.2, "synthetic: user popularity skew")
	genSeed    = flag.Int64("gen-seed", 1, "synthetic: workload seed")
	syncEvery  = flag.Int("sync-every", 16, "synthetic: sync every N batches (0 = timer only)")
)

func main() {
	flag.Parse()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *id == "" {
		logf("bdagent: -id is required")
		os.Exit(2)
	}
	structs, err := engine.ParseStructures(*structures)
	if err != nil {
		logf("bdagent: %v", err)
		os.Exit(2)
	}
	agent, err := netagg.NewAgent(netagg.AgentOptions{
		ID:            *id,
		Aggregator:    *aggregator,
		Config:        bounded.Config{N: *n, Eps: *eps, Alpha: *alpha, Seed: *seed},
		Engine:        engine.Options{Shards: *shards, Structures: structs},
		SyncInterval:  *interval,
		CheckpointDir: *checkpoint,
		Logf:          logf,
	})
	if err != nil {
		logf("bdagent: %v", err)
		os.Exit(2)
	}
	defer agent.Close()
	if agent.RestoredFromCheckpoint() {
		logf("bdagent %s: engine restored from checkpoint in %s", *id, *checkpoint)
	}

	if *metrics != "" {
		agent.ExposeMetrics(obs.Default, *id)
		agent.Engine().ExposeMetrics(obs.Default, *id)
		go func() {
			http.Handle("/metrics", obs.Handler())
			logf("bdagent: metrics on http://%s/metrics", *metrics)
			if err := http.ListenAndServe(*metrics, nil); err != nil {
				logf("bdagent: metrics server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *synthetic {
		runSynthetic(ctx, agent, logf)
		return
	}
	runStdin(ctx, agent, logf)
}

// runSynthetic is the load-generator mode: drive the built-in workload
// through the engine, syncing every -sync-every batches, then report.
func runSynthetic(ctx context.Context, agent *netagg.Agent, logf func(string, ...any)) {
	rep, err := netagg.RunSynthetic(ctx, agent, netagg.SyntheticConfig{
		Users:      *users,
		Updates:    *updates,
		DeleteFrac: *deleteFrac,
		Skew:       *zipf,
		BatchSize:  *batch,
		Seed:       *genSeed,
		SyncEvery:  *syncEvery,
	})
	if err != nil {
		logf("bdagent: synthetic: %v", err)
		os.Exit(1)
	}
	if err := agent.Sync(ctx); err != nil {
		logf("bdagent: final sync: %v", err)
		os.Exit(1)
	}
	st := agent.Stats()
	fmt.Printf("bdagent %s: %s\n", *id, rep)
	fmt.Printf("bdagent %s: snapshots sent=%d skipped=%d, %d sketch blobs, %d bytes out, %d reconnects, fleet exponent %d\n",
		*id, st.SnapshotsSent, st.SnapshotsSkipped, st.SketchesSent, st.BytesOut, st.Reconnects, st.FleetExponent)
}

// runStdin ingests "index delta" lines while Run ships snapshots on
// the timer; EOF (or a signal) triggers the final flush.
func runStdin(ctx context.Context, agent *netagg.Agent, logf func(string, ...any)) {
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- agent.Run(runCtx) }()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	buf := make([]bounded.Update, 0, *batch)
	flush := func() {
		if len(buf) == 0 {
			return
		}
		if err := agent.Ingest(buf); err != nil {
			logf("bdagent: ingest: %v", err)
			os.Exit(1)
		}
		buf = buf[:0]
	}
	var lines int64
	for sc.Scan() && ctx.Err() == nil {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			logf("bdagent: malformed line %q", line)
			os.Exit(1)
		}
		idx, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			logf("bdagent: malformed index %q: %v", fields[0], err)
			os.Exit(1)
		}
		delta, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			logf("bdagent: malformed delta %q: %v", fields[1], err)
			os.Exit(1)
		}
		buf = append(buf, bounded.Update{Index: idx, Delta: delta})
		if len(buf) == cap(buf) {
			flush()
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		logf("bdagent: stdin: %v", err)
	}
	flush()
	cancel() // Run's shutdown path performs the final sync
	<-done
	st := agent.Stats()
	logf("bdagent %s: ingested %d updates; snapshots sent=%d skipped=%d, %d bytes out, %d reconnects, fleet exponent %d",
		*id, lines, st.SnapshotsSent, st.SnapshotsSkipped, st.BytesOut, st.Reconnects, st.FleetExponent)
}
