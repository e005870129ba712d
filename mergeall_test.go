package bounded

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/wire"
)

// candidate is one tracked (id, estimate) pair as the wire carries it.
type candidate struct {
	id  uint64
	est float64
}

// splitTracker cuts a heavy-hitters kind's encoding at its candidate
// tracker, the state's last section: what precedes it (every sketch,
// scale and clock section, and the envelope), the tracker's bytes, and
// its pairs sorted by id.
func splitTracker(t *testing.T, sk Sketch) (head, tracker []byte, pairs []candidate) {
	t.Helper()
	blob := must(sk.MarshalBinary())
	var p packedColumns
	if err := wire.Fill(blob[stateAt(t, blob):], walker(func(r *wire.Reader) { p.walk(r, sk.(structure).shapeOf()) })); err != nil {
		t.Fatal(err)
	}
	pairs = p.trackers[len(p.trackers)-1]
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].id < pairs[b].id })
	at := stateAt(t, blob) + p.trackerAt[len(p.trackerAt)-1]
	return blob[:at], blob[at:], pairs
}

// rankLimit returns the estimate the heavy-hitters tracker ranks its
// candidates by, and how many it keeps: twice the capacity
// heavy.l1TrackerCap gives. The L2 kind ranks by its insertion-pass
// sketch, which its public API does not read; internal/heavy's
// TestMergeAllKeepsTopOfUnion holds its candidates to that sketch.
func rankLimit(sk Sketch) (func(uint64) float64, int) {
	if h, ok := sk.(*HeavyHitters); ok {
		return h.impl.Query, 2 * 4 * int(math.Ceil(1/h.cfg.Eps))
	}
	return nil, 0
}

// bruteTopOfUnion is the top limit of the union of the parts'
// candidates under est: larger |estimate| first, ties to the smaller
// id, by a full sort.
func bruteTopOfUnion(t *testing.T, parts []Sketch, est func(uint64) float64, limit int) []candidate {
	var union []candidate
	seen := map[uint64]bool{}
	for _, p := range parts {
		_, _, pairs := splitTracker(t, p)
		for _, c := range pairs {
			if !seen[c.id] {
				seen[c.id] = true
				union = append(union, candidate{c.id, est(c.id)})
			}
		}
	}
	sort.Slice(union, func(a, b int) bool {
		x, y := math.Abs(union[a].est), math.Abs(union[b].est)
		if x != y {
			return x > y
		}
		return union[a].id < union[b].id
	})
	union = union[:min(limit, len(union))]
	sort.Slice(union, func(a, b int) bool { return union[a].id < union[b].id })
	return union
}

// TestMergeAllRefusesMismatches: MergeAll checks every part against
// the first before it writes anything.
func TestMergeAllRefusesMismatches(t *testing.T) {
	cfg := Config{N: 1 << 12, Eps: 0.05, Alpha: 4, Seed: 5}
	a, b := must(NewHeavyHitters(cfg)), must(NewHeavyHitters(cfg))
	other := cfg
	other.Seed = 6
	foreign := must(NewHeavyHitters(other))
	a.Update(1, 3)
	before := must(a.MarshalBinary())
	for name, parts := range map[string][]Sketch{
		"no parts":     nil,
		"other seed":   {a, b, foreign},
		"other kind":   {a, must(NewL0Estimator(cfg))},
		"nil part":     {a, nil},
		"zero-value":   {&HeavyHitters{}, a},
		"typed nil":    {a, (*HeavyHitters)(nil)},
		"options echo": {a, must(NewHeavyHitters(cfg, WithStrict(false)))},
	} {
		if _, err := MergeAll(a, parts); err == nil {
			t.Errorf("%s: MergeAll accepted it", name)
		}
		if !bytes.Equal(must(a.MarshalBinary()), before) {
			t.Fatalf("%s: a refused MergeAll wrote into dst", name)
		}
	}
}
