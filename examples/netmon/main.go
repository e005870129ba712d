// Netmon reproduces the paper's motivating network-monitoring scenario
// (Section 1): compare traffic patterns between two time intervals (or
// two routers) by sketching the difference stream f1 - f2. Even when
// overall traffic differs by only a few percent, the difference stream
// has a small alpha, so the alpha-property algorithms answer with far
// less space than turnstile ones.
//
// The example estimates (a) which flows changed the most (heavy hitters
// over f1 - f2), (b) how much total traffic shifted (L1 of the
// difference), and (c) how similar the two intervals are (inner
// product), against exact ground truth.
//
// Run with: go run ./examples/netmon
//
// Live dashboard mode: -listen keeps a sharded engine ingesting a
// rolling synthetic difference stream and serves the process-wide
// observability surface (engine ingest/query counters and latency
// histograms, next to the arena and kernel-dispatch series) over HTTP:
//
//	go run ./examples/netmon -listen :9090
//	curl -s http://localhost:9090/metrics                  # Prometheus text
//	curl -s 'http://localhost:9090/metrics?format=json'    # JSON
//
// or point a Prometheus scrape job at it:
//
//	scrape_configs:
//	  - job_name: netmon
//	    static_configs:
//	      - targets: ['localhost:9090']
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	bounded "repro"
	"repro/engine"
	"repro/internal/gen"
	"repro/internal/obs"
)

// must unwraps a constructor result; real services handle the error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	listen := flag.String("listen", "", "serve /metrics on this address (e.g. :9090) and keep sketching a live stream")
	flag.Parse()

	const (
		n    = 1 << 20 // [source, destination] pair space
		m    = 200000  // packets per interval
		diff = 0.05    // 5% of flows shift between intervals
	)
	f1, f2 := gen.NetworkPair(gen.Config{N: n, Items: m, Alpha: 1, Seed: 11}, diff)
	// Plant three attack flows: addresses that appear only in the second
	// interval with significant volume (the paper's DDoS-detection
	// motivation). They dominate the difference stream.
	for a := uint64(0); a < 3; a++ {
		f2.Updates = append(f2.Updates, bounded.Update{Index: n - 1 - a, Delta: 800})
	}
	d := gen.Difference(f1, f2)

	truth := bounded.NewTracker(n)
	truth.Consume(d)
	alpha := truth.AlphaL1()
	fmt.Println("== network traffic difference monitoring ==")
	fmt.Printf("interval packets         : %d + %d\n", len(f1.Updates), len(f2.Updates))
	fmt.Printf("difference stream alpha  : %.1f (universe n = %d)\n", alpha, n)

	// (a) biggest flow changes.
	cfg := bounded.Config{N: n, Eps: 0.02, Alpha: alpha, Seed: 12}
	// The difference can go negative: general turnstile variants.
	hh := must(bounded.NewHeavyHitters(cfg, bounded.WithStrict(false)))
	// (b) total traffic shift.
	l1 := must(bounded.NewL1Estimator(bounded.Config{N: n, Eps: 0.2, Alpha: alpha, Seed: 13}, bounded.WithStrict(false)))
	// Batched ingest: feeding a whole interval's updates in one call is
	// the preferred high-throughput path (per-call overhead amortizes
	// and candidate tracking refreshes once per distinct flow).
	hh.UpdateBatch(d.Updates)
	l1.UpdateBatch(d.Updates)
	got := hh.HeavyHitters()
	want := truth.F.HeavyHitters(0.02)
	fmt.Printf("changed flows (true)     : %d flows >= 2%% of shift\n", len(want))
	fmt.Printf("changed flows (sketch)   : %d flows, space %d bits\n", len(got), hh.SpaceBits())
	fmt.Printf("traffic shift (true)     : %d packets\n", truth.F.L1())
	fmt.Printf("traffic shift (sketch)   : %.0f packets, space %d bits\n", l1.Estimate(), l1.SpaceBits())

	// (c) interval similarity via inner product <f1, f2>.
	ip := must(bounded.NewInnerProduct(bounded.Config{N: n, Eps: 0.1, Alpha: 2, Seed: 14}))
	t1 := bounded.NewTracker(n)
	t2 := bounded.NewTracker(n)
	ip.UpdateBatchF(f1.Updates)
	ip.UpdateBatchG(f2.Updates)
	for _, u := range f1.Updates {
		t1.Update(u)
	}
	for _, u := range f2.Updates {
		t2.Update(u)
	}
	trueIP := t1.F.Inner(t2.F)
	fmt.Printf("interval inner product   : true %d, sketch %.0f, space %d bits\n",
		trueIP, ip.Estimate(), ip.SpaceBits())

	if *listen != "" {
		serveLive(*listen, n)
	}
}

// serveLive is the -listen mode: a sharded engine keeps sketching a
// rolling synthetic difference stream (one fresh interval pair every
// quarter second, plus a heavy-hitters query so the merged-view series
// move too) while the process-wide obs handler serves every registered
// metric — the engine's instance="netmon" counters and latency
// histograms next to the arena and kernel-dispatch series. Scrape it
// with curl or Prometheus as documented in the package comment.
func serveLive(addr string, n uint64) {
	e := must(engine.New(
		bounded.Config{N: n, Eps: 0.02, Alpha: 8, Seed: 21},
		// The difference stream goes negative: general turnstile.
		engine.Options{General: true},
	))
	defer e.Close()
	unregister := e.ExposeMetrics(obs.Default, "netmon")
	defer unregister()

	go func() {
		for seed := int64(0); ; seed++ {
			f1, f2 := gen.NetworkPair(gen.Config{N: n, Items: 20000, Alpha: 1, Seed: 100 + seed}, 0.05)
			d := gen.Difference(f1, f2)
			if err := e.Ingest(d.Updates); err != nil {
				log.Fatal(err)
			}
			if _, err := e.HeavyHitters(); err != nil {
				log.Fatal(err)
			}
			time.Sleep(250 * time.Millisecond)
		}
	}()

	http.Handle("/metrics", obs.Handler())
	log.Printf("netmon: serving metrics on http://localhost%s/metrics", addr)
	log.Fatal(http.ListenAndServe(addr, nil))
}
