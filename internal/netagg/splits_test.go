package netagg

import (
	"context"
	"fmt"
	"slices"
	"testing"

	bounded "repro"
	"repro/engine"
)

// TestSplitsThatBreakLocalStrictness: TestEndToEndDifferential routes
// by key (siteOf), so every site's substream is itself a strict
// turnstile stream. Real monitoring promises no such thing — a flow
// opens at one router and closes at another — so here the same stream
// and the same whole-stream reference engine meet two splits under
// which a site's substream is NOT strict, although the union is:
//
//   - round-robin: update j goes to site j mod 4, so a delete routinely
//     lands on a site that never saw the insert;
//   - delete-elsewhere: every delete goes to the site after its
//     insert's, so no site ever sees both signs of one key.
//
// In the rate-1 regime the CSSS tables are linear in the stream, so the
// merged point estimates must equal the reference's bit for bit however
// the stream was cut; so must the strict L1 estimate, the heavy-hitter
// set and the recovered support (verifyAgainstReference); and the
// heavy-hitter set must hold every truly eps-heavy key. The sampled
// regime, where each site halves on a clock of its own, is not covered
// here: no split is bit-identical there, and the test for it is ROADMAP
// item 2's seed sweep.
func TestSplitsThatBreakLocalStrictness(t *testing.T) {
	const sites = 4
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

	splits := []struct {
		name  string
		route func(j int, u bounded.Update) int
	}{
		{"round-robin", func(j int, _ bounded.Update) int { return j % sites }},
		{"delete-elsewhere", func(_ int, u bounded.Update) int {
			s := int(u.Index % sites)
			if u.Delta < 0 {
				s = (s + 1) % sites
			}
			return s
		}},
	}
	for _, sp := range splits {
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

			bySite := make([][]bounded.Update, sites)
			for j, u := range stream {
				s := sp.route(j, u)
				bySite[s] = append(bySite[s], u)
			}
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
