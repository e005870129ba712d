package bounded

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/stream"
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

// TestMergeAllMatchesChain is MergeAll's differential over every kind,
// 1 to 5 parts, at rate 1, sampled with every part at one exponent
// (aligned: the table sum runs) and sampled at different exponents
// (unaligned: csss.Merge runs per part). Against the pairwise chain —
// parts[0].Clone(), then Merge of each later part — over equal copies
// of the parts:
//   - a kind without a k-way merge runs the chain (one part: a clone):
//     equal bytes;
//   - a heavy-hitters kind, one part included, equals the chain in
//     every byte before its candidate tracker (envelope, scale, tables,
//     clocks), and the heavy hitters keep the brute-force top of the
//     union of the parts' candidates under the merged sketch's
//     estimates — which the chain, re-ranking after every part, need
//     not (the L2 kind is held to it in internal/heavy);
//   - at rate 1 and aligned, any order of the parts gives the same
//     bytes, whether MergeAll writes into nil, into parts[0] in place or
//     into an earlier result. The one exception is the heavy hitters' L1
//     scale, which merges as the chain does, in part order: the general
//     mode's Cauchy sums add floats, and the strict mode's high-water
//     mark follows the running sum, which a part with net deletions (a
//     substream that is not strict) lowers on the way.
func TestMergeAllMatchesChain(t *testing.T) {
	whole, _, _ := fig1Stream(t)
	sampled := Config{N: 1 << 12, Eps: 0.2, Alpha: 1.5, Seed: 5}
	rng := rand.New(rand.NewSource(8))
	for _, regime := range []struct {
		name    string
		cfg     Config
		updates []stream.Update
		aligned bool
	}{
		{"rate1", Config{N: 1 << 12, Eps: 0.05, Alpha: 4, Seed: 5}, whole[:len(whole)/4], true},
		{"aligned", sampled, whole, true},
		{"unaligned", sampled, whole, false},
	} {
		for _, tc := range marshalCasesFor(regime.cfg) {
			// Part j sketches a chunk of weight j+1, so the parts'
			// exponents differ once sampled; k parts are the first k.
			live := make([]Sketch, 5)
			unit := len(regime.updates) / 15
			for j, at := range []int{0, 1, 3, 6, 10} {
				live[j] = tc.make(t)
				live[j].UpdateBatch(regime.updates[at*unit : (at+j+1)*unit])
			}
			if hh, ok := live[0].(*HeavyHitters); ok && regime.name == "aligned" {
				// Every part at the exponent the clock of all five sets
				// (what a fleet's ACK carries), so any k of them sum
				// without a halving.
				p, pos := 0, int64(0)
				for _, sk := range live {
					p, pos = max(p, sk.(*HeavyHitters).SampleExponent()), pos+sk.(*HeavyHitters).SamplePosition()
				}
				for _, sk := range live {
					if err := sk.(*HeavyHitters).RaiseSampleExponent(max(p, hh.SampleExponentAt(pos))); err != nil {
						t.Fatal(err)
					}
				}
			}
			blobs := make([][]byte, len(live))
			for j, sk := range live {
				blobs[j] = must(sk.MarshalBinary())
			}
			// decode returns equal copies of the parts in order: a decode
			// seeds a sketch's generator from its bytes.
			decode := func(order []int) []Sketch {
				parts := make([]Sketch, len(order))
				for j, o := range order {
					parts[j] = must(UnmarshalSketch(blobs[o]))
				}
				return parts
			}
			for k := 1; k <= 5; k++ {
				t.Run(fmt.Sprintf("%s/%s/parts=%d", regime.name, tc.name, k), func(t *testing.T) {
					identity := make([]int, k)
					for j := range identity {
						identity[j] = j
					}
					chain := decode(identity)
					want := chain[0].Clone()
					for _, p := range chain[1:] {
						if err := want.Merge(p); err != nil {
							t.Fatal(err)
						}
					}
					parts := decode(identity)
					got := must(MergeAll(nil, parts))
					wantBytes, gotBytes := must(want.MarshalBinary()), must(got.MarshalBinary())
					_, kw := got.(kWay)
					if !kw {
						if !bytes.Equal(gotBytes, wantBytes) {
							t.Fatal("MergeAll's bytes differ from the chain's")
						}
					} else {
						wantHead, _, _ := splitTracker(t, want)
						gotHead, _, kept := splitTracker(t, got)
						if !bytes.Equal(gotHead, wantHead) {
							t.Fatal("MergeAll's sketch, scale or clock sections differ from the chain's")
						}
						if est, limit := rankLimit(got); est != nil {
							if top := bruteTopOfUnion(t, parts, est, limit); !slices.Equal(kept, top) {
								t.Fatalf("MergeAll kept %d candidates, the union's top %d differs", len(kept), len(top))
							}
						}
					}
					if !kw || !regime.aligned {
						return
					}
					skip := 0 // the bytes before those compared
					if hh, ok := got.(*HeavyHitters); ok {
						// The L1 scale, the state's first section (16 bytes
						// when strict).
						skip = stateAt(t, gotBytes) + hhParams(hh.cfg, hh.opts).StateLen() - hhParams(hh.cfg, echo{}).StateLen() + 16
					}
					var recycled Sketch
					for trial := range 4 {
						order := slices.Clone(identity)
						rng.Shuffle(k, func(a, b int) { order[a], order[b] = order[b], order[a] })
						ps := decode(order)
						var dst Sketch
						switch trial {
						case 0: // the live parts, whose candidates' columns are in their slabs
							for j, o := range order {
								ps[j] = live[o]
							}
						case 1:
							dst = ps[0]
						default:
							dst = recycled
						}
						res := must(MergeAll(dst, ps))
						if b := must(res.MarshalBinary()); !bytes.Equal(b[skip:], gotBytes[skip:]) {
							t.Fatalf("parts in order %v (trial %d) give different bytes", order, trial)
						}
						if trial > 0 {
							recycled = res
						}
					}
				})
			}
		}
	}
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
