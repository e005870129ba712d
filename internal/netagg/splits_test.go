package netagg

import (
	"context"
	"fmt"
	"slices"
	"testing"

	bounded "repro"
	"repro/engine"
)

// splitSites is how many sites a split cuts a stream across.
const splitSites = 4

// split routes update j of a stream, u, to one of splitSites sites.
type split struct {
	name  string
	route func(j int, u bounded.Update) int
}

// cut returns each site's substream, in stream order.
func (sp split) cut(stream []bounded.Update) [][]bounded.Update {
	bySite := make([][]bounded.Update, splitSites)
	for j, u := range stream {
		s := sp.route(j, u)
		bySite[s] = append(bySite[s], u)
	}
	return bySite
}

// keyPartitioned sends every update of a key to one site, so each
// site's substream is strict whenever the stream is.
var keyPartitioned = split{"key-partitioned", func(_ int, u bounded.Update) int { return int(u.Index % splitSites) }}

// nonStrictSplits cut a strict stream so that sites' substreams are not:
//
//   - round-robin: update j goes to site j mod 4, so a delete routinely
//     lands on a site that never saw the insert;
//   - delete-elsewhere: every delete goes to the site after its
//     insert's, so no site ever sees both signs of one key.
var nonStrictSplits = []split{
	{"round-robin", func(j int, _ bounded.Update) int { return j % splitSites }},
	{"delete-elsewhere", func(_ int, u bounded.Update) int {
		s := int(u.Index % splitSites)
		if u.Delta < 0 {
			s = (s + 1) % splitSites
		}
		return s
	}},
}

// TestSplitsThatBreakLocalStrictness: TestEndToEndDifferential routes
// by key (siteOf), so every site's substream is itself a strict
// turnstile stream. Real monitoring promises no such thing — a flow
// opens at one router and closes at another — so here the same stream
// and the same whole-stream reference engine meet the two splits under
// which a site's substream is NOT strict, although the union is
// (nonStrictSplits: round-robin and delete-elsewhere).
//
// In the rate-1 regime the CSSS tables are linear in the stream, so the
// merged point estimates must equal the reference's bit for bit however
// the stream was cut; so must the strict L1 estimate, the heavy-hitter
// set and the recovered support (verifyAgainstReference); and the
// heavy-hitter set must hold every truly eps-heavy key. The sampled
// regime is covered by TestFleetClockSameDistribution, a seed sweep
// over these splits and the key-partitioned one: no split is
// bit-identical there (draws differ), so it asserts the same
// distribution as a whole-stream engine instead.
func TestSplitsThatBreakLocalStrictness(t *testing.T) {
	stream := testStream(60_000, 11)
	probeKeys := []uint64{0, 1, 2, 3, 7, 31, 100, 4096, testConfig.N - 1}

	// The truth the heavy-hitter assertion is held to: the exact
	// frequency vector's eps-heavy keys.
	truth := bounded.NewTracker(testConfig.N)
	for _, u := range stream {
		truth.Update(u)
	}
	var l1 int64
	for _, f := range truth.F {
		l1 += max(f, -f)
	}
	var heavy []uint64
	for k, f := range truth.F {
		if float64(max(f, -f)) >= testConfig.Eps*float64(l1) {
			heavy = append(heavy, k)
		}
	}
	slices.Sort(heavy)
	if len(heavy) == 0 {
		t.Fatal("the test stream has no eps-heavy key: the superset assertion would be vacuous")
	}

	for _, sp := range nonStrictSplits {
		t.Run(sp.name, func(t *testing.T) {
			agg, addr := startAggregator(t, AggregatorOptions{Config: testConfig, Structures: testStructures})
			defer agg.Close()
			ref, err := engine.New(testConfig, engine.Options{Shards: 2, Structures: testStructures})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if err := ref.Ingest(stream); err != nil {
				t.Fatal(err)
			}

			bySite := sp.cut(stream)
			nonStrict := 0
			for s, us := range bySite {
				local := bounded.NewTracker(testConfig.N)
				for _, u := range us {
					local.Update(u)
				}
				if !local.Strict {
					nonStrict++
				}
				a := newTestAgent(t, fmt.Sprintf("%s-%d", sp.name, s), addr)
				if err := a.Ingest(us); err != nil {
					t.Fatal(err)
				}
				if err := a.Sync(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if nonStrict == 0 {
				t.Fatal("every site's substream is strict: the split does not exercise what it is here for")
			}

			client, err := DialClient(addr, ClientOptions{Config: testConfig})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			// Point estimates, heavy-hitter set, strict L1 and recovered
			// support, each bit-equal to the whole-stream reference's.
			verifyAgainstReference(t, client, ref, probeKeys)

			gotHH, err := client.HeavyHitters()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range heavy {
				if !slices.Contains(gotHH, k) {
					t.Fatalf("heavy hitters %v over the network miss the truly eps-heavy key %d (all of them: %v)",
						sortedCopy(gotHH), k, heavy)
				}
			}
		})
	}
}
