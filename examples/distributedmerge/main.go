// Distributedmerge demonstrates the aggregation tier's message layer
// end to end with REAL process isolation — the paper's distributed
// monitoring scenario: S sites each observe a disjoint substream,
// build small linear sketches, and ship them to a coordinator that
// merges and answers for the union.
//
// The binary re-executes itself once per site (a separate OS process
// with nothing shared but the Config) and speaks the SAME framed
// protocol the production tier uses — netproto HELLO + SNAPSHOT
// frames, here over the child's stdout pipe instead of a TCP socket.
// The coordinator checks the HELLO's config echo (same seed ⇒
// mergeable sketches), decodes each SNAPSHOT blob with
// bounded.UnmarshalSketch, and Merges. A single-writer reference over
// the concatenated stream verifies the coordinator's answers are
// identical — the exact-regime guarantee the library's differential
// tests assert.
//
// This is the manual, one-shot precursor to the real service: run
// cmd/bdaggd and cmd/bdagent for the same exchange over live sockets
// with periodic incremental sync, reconnects, and queries.
//
// Run with: go run ./examples/distributedmerge
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/exec"

	bounded "repro"
	"repro/engine"
	"repro/internal/netproto"
	"repro/internal/wire"
)

const (
	sites = 3
	n     = 1 << 16
	eps   = 0.05
)

// cfg must be identical at every site: same Seed means same hash
// functions, which is what makes the shipped sketches mergeable.
var cfg = bounded.Config{N: n, Eps: eps, Alpha: 4, Seed: 7}

var siteFlag = flag.Int("site", -1, "internal: run as site worker (0-based)")

// must unwraps a constructor result; real services handle the error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// siteStream deterministically generates site s's substream: skewed
// background churn plus a site-specific hot key.
func siteStream(site int) []bounded.Update {
	rng := rand.New(rand.NewSource(int64(1000 + site)))
	hot := uint64(4242 + site)
	var updates []bounded.Update
	for t := 0; t < 30000; t++ {
		k := uint64(rng.Intn(8000))
		updates = append(updates, bounded.Update{Index: k, Delta: 1})
		if t%2 == 0 {
			// Delete a background key again: bounded deletions.
			updates = append(updates, bounded.Update{Index: uint64(rng.Intn(8000)), Delta: -1})
		}
		if t%5 == 0 {
			updates = append(updates, bounded.Update{Index: hot, Delta: 1})
		}
	}
	return updates
}

// runSite is the child-process role: sketch the substream, then speak
// the agent's half of the protocol over stdout — HELLO introducing the
// site and its config, then one SNAPSHOT carrying every sketch as a
// self-describing wire envelope.
func runSite(site int) {
	hh := must(bounded.NewHeavyHitters(cfg))
	l1 := must(bounded.NewL1Estimator(cfg))
	batch := siteStream(site)
	hh.UpdateBatch(batch)
	l1.UpdateBatch(batch)

	mw := netproto.NewMessageWriter(os.Stdout)
	if err := mw.Write(&netproto.Hello{
		Role:       netproto.RoleAgent,
		Agent:      fmt.Sprintf("site-%d", site),
		MinVersion: netproto.VersionMin,
		MaxVersion: netproto.VersionMax,
		Config:     netproto.ConfigEcho{N: cfg.N, Eps: cfg.Eps, Alpha: cfg.Alpha, Seed: cfg.Seed},
		Structures: uint32(engine.HeavyHitters | engine.L1Estimator),
	}); err != nil {
		log.Fatal(err)
	}
	snap := &netproto.Snapshot{Seq: 1, Gen: 1}
	for bit, sk := range map[engine.Structures]bounded.Sketch{
		engine.HeavyHitters: hh,
		engine.L1Estimator:  l1,
	} {
		snap.Sketches = append(snap.Sketches, wire.Blob{
			Bit:     uint32(bit),
			Payload: must(sk.MarshalBinary()),
		})
	}
	if err := mw.Write(snap); err != nil {
		log.Fatal(err)
	}
}

func main() {
	flag.Parse()
	if *siteFlag >= 0 {
		runSite(*siteFlag)
		return
	}

	// Coordinator role: spawn one worker process per site, read its
	// framed HELLO + SNAPSHOT off the pipe, and merge the blobs.
	hh := must(bounded.NewHeavyHitters(cfg))
	l1 := must(bounded.NewL1Estimator(cfg))
	var wireBytes int
	for site := 0; site < sites; site++ {
		out, err := exec.Command(os.Args[0], fmt.Sprintf("-site=%d", site)).Output()
		if err != nil {
			log.Fatalf("site %d: %v", site, err)
		}
		wireBytes += len(out)
		mr := netproto.NewMessageReader(newByteReader(out), 0)

		first, err := mr.Next()
		if err != nil {
			log.Fatalf("site %d: reading HELLO: %v", site, err)
		}
		hello, ok := first.(*netproto.Hello)
		if !ok {
			log.Fatalf("site %d: expected HELLO, got %s", site, first.Kind())
		}
		// The admission gate every aggregator applies: same Config or
		// the sketches are not mergeable.
		want := netproto.ConfigEcho{N: cfg.N, Eps: cfg.Eps, Alpha: cfg.Alpha, Seed: cfg.Seed}
		if hello.Config != want {
			log.Fatalf("site %d: config mismatch: %+v", site, hello.Config)
		}

		msg, err := mr.Next()
		if err != nil {
			log.Fatalf("site %d: reading SNAPSHOT: %v", site, err)
		}
		snap, ok := msg.(*netproto.Snapshot)
		if !ok {
			log.Fatalf("site %d: expected SNAPSHOT, got %s", site, msg.Kind())
		}
		for _, blob := range snap.Sketches {
			// The payload is self-describing: the coordinator does not
			// need the StructureBit to know which sketch it holds.
			sk, err := bounded.UnmarshalSketch(blob.Payload)
			if err != nil {
				log.Fatal(err)
			}
			switch remote := sk.(type) {
			case *bounded.HeavyHitters:
				if err := hh.Merge(remote); err != nil {
					log.Fatal(err)
				}
			case *bounded.L1Estimator:
				if err := l1.Merge(remote); err != nil {
					log.Fatal(err)
				}
			default:
				log.Fatalf("unexpected sketch kind %T", sk)
			}
		}
	}

	// Single-writer reference over the concatenated stream.
	refHH := must(bounded.NewHeavyHitters(cfg))
	refL1 := must(bounded.NewL1Estimator(cfg))
	for site := 0; site < sites; site++ {
		batch := siteStream(site)
		refHH.UpdateBatch(batch)
		refL1.UpdateBatch(batch)
	}

	fmt.Println("== distributed merge (one process per site, netproto frames) ==")
	fmt.Printf("sites                    : %d\n", sites)
	fmt.Printf("shipped frame bytes      : %d\n", wireBytes)
	fmt.Printf("merged heavy hitters     : %v\n", hh.HeavyHitters())
	fmt.Printf("single-writer reference  : %v\n", refHH.HeavyHitters())
	fmt.Printf("merged ||f||_1 estimate  : %.0f (reference %.0f)\n", l1.Estimate(), refL1.Estimate())
	match := fmt.Sprint(hh.HeavyHitters()) == fmt.Sprint(refHH.HeavyHitters())
	fmt.Printf("answers identical        : %v\n", match)
	if !match {
		os.Exit(1)
	}
}

// newByteReader wraps the collected pipe output as an io.Reader for
// the streaming MessageReader (which tolerates arbitrary read
// fragmentation — a live pipe works just as well).
func newByteReader(b []byte) io.Reader { return &byteReader{b: b} }

type byteReader struct{ b []byte }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
