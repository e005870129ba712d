package bounded

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// The conformance battery. Every structure of the paper is a linear
// sketch that sites build apart and merge, so one contract holds for
// every kind: what ships is what merges, a stream split over sites and
// merged is the stream sketched at one site, and ingest, copies and
// reads leave no trace in what a structure later writes. The battery
// builds one fixture per kindTable row, model its constructor takes
// and regime — fed once — and runs each property of that contract over
// every fixture. A property runs under one top-level test; the names
// are the ones the properties had as separate tests, so a -run list
// that names one still selects it.

// conformanceKind is the battery's row for a kind: the options its
// fixtures are built with, the Eps it keeps when not the regime's, and
// the units every update carries in the sampled regime.
type conformanceKind struct {
	opts  []Option
	eps   float64
	scale int64
}

// conformanceKinds has a row for every kindTable row (TestConformance
// fails on a kind without one). The L1 estimators' schedules sample at
// rate base^-j past base^2 units, base ≈ α²/ε² scaled: the stream's
// 48 000 units leave both at level 0, 2048 units an update put both
// past level 1.
var conformanceKinds = map[Kind]conformanceKind{
	KindHeavyHitters:   {},
	KindL1Estimator:    {scale: 2048},
	KindL0Estimator:    {},
	KindL1Sampler:      {opts: []Option{WithCopies(4)}, eps: 0.25},
	KindSupportSampler: {opts: []Option{WithK(16)}},
	KindInnerProduct:   {},
	KindL2HeavyHitters: {eps: 0.1},
	KindSyncSketch:     {opts: []Option{WithCapacity(64)}},
}

// fixture is one (kind, model, regime) case: how to build the kind and
// its stream, and the structure fed that stream once, with its bytes.
// No check writes to whole; reads that could move it read a copy.
type fixture struct {
	kind    Kind
	general bool // built WithStrict(false)
	models  int  // how many models the kind's constructor takes
	regime  string
	cfg     Config
	opts    []Option
	updates []Update
	whole   Sketch
	blob    []byte
	said    string    // answers of a copy of whole
	parts   []Sketch  // partsOf's cache
	byRole  [3]Sketch // fedBy's cache
}

// fixtures is the battery's case table, built once per test binary.
var fixtures = sync.OnceValue(func() []*fixture {
	s := gen.BoundedDeletion(gen.Config{N: 1 << 12, Items: 30000, Alpha: 4, Zipf: 1.3, Seed: 77}).Updates
	// At rate1 no heavy-hitters table samples (exponent 0); sampled
	// takes every CSSS table past 2S, the inner product's and (scaled)
	// the L1 estimators' schedules past their first level.
	regimes := []struct {
		name    string
		cfg     Config
		updates []Update
	}{
		{"rate1", Config{N: 1 << 12, Eps: 0.1, Alpha: 4, Seed: 5}, s[:len(s)/4]},
		{"sampled", Config{N: 1 << 12, Eps: 0.2, Alpha: 1.5, Seed: 5}, s},
	}
	var out []*fixture
	for k := KindHeavyHitters; k.valid(); k++ {
		row, ok := conformanceKinds[k]
		if !ok {
			continue
		}
		models := 1
		if _, err := kindTable[k].build(regimes[0].cfg, WithStrict(false)); err == nil {
			models = 2
		}
		for m := range models {
			for _, rg := range regimes {
				f := &fixture{kind: k, general: m == 1, models: models, regime: rg.name, cfg: rg.cfg, opts: row.opts, updates: rg.updates}
				if row.eps != 0 {
					f.cfg.Eps = row.eps
				}
				if f.general {
					f.opts = append(slices.Clip(f.opts), WithStrict(false))
				}
				if row.scale != 0 && rg.name == "sampled" {
					f.updates = make([]Update, len(rg.updates))
					for i, u := range rg.updates {
						f.updates[i] = Update{Index: u.Index, Delta: u.Delta * row.scale}
					}
				}
				f.whole = f.build()
				f.feed(f.whole, f.updates, batchRole)
				f.whole.UpdateBatch(nil) // an empty batch is a no-op on every path
				f.blob = must(f.whole.MarshalBinary())
				f.said = answers(f.whole.Clone())
				out = append(out, f)
			}
		}
	}
	return out
})

func (f *fixture) build() Sketch { return must(kindTable[f.kind].build(f.cfg, f.opts...)) }

// name is the kind's name, "/general" behind it for the general model.
func (f *fixture) name() string {
	if f.general {
		return f.kind.String() + "/general"
	}
	return f.kind.String()
}

// joined is name with the model run into the kind: "HeavyHittersGeneral".
func (f *fixture) joined() string { return strings.Replace(f.name(), "/general", "General", 1) }

// modeled is name with the model spelled out on a kind that takes two.
func (f *fixture) modeled() string {
	if f.models > 1 && !f.general {
		return f.name() + "/strict"
	}
	return f.name()
}

// An ingest role: UpdateBatch, PlanBatch + UpdateColumns, or Update per
// item.
type role int

const (
	batchRole role = iota
	columnsRole
	itemRole
)

// chunks are the batch lengths ingest cycles through.
var chunks = []int{1, 7, 513, 64, 1024}

// feed ingests us into sk through r in the battery's chunks. An inner
// product takes us on f and, keys flipped in their last bit, on g.
func (f *fixture) feed(sk Sketch, us []Update, r role) {
	f.feedSides(sk, us, [2]role{r, r})
}

// feedSides is feed with the inner product's f and g sides each fed
// through its own role.
func (f *fixture) feedSides(sk Sketch, us []Update, roles [2]role) {
	type ingest struct {
		item    func(uint64, int64)
		batch   func([]Update)
		columns func(*Batch)
	}
	sides := []ingest{{sk.Update, sk.UpdateBatch, sk.UpdateColumns}}
	if ip, ok := sk.(*InnerProduct); ok {
		sides = append(sides, ingest{ip.UpdateG, ip.UpdateBatchG, ip.UpdateColumnsG})
	}
	g := make([]Update, 0, 1024)
	for off, k := 0, 0; off < len(us); k++ {
		chunk := us[off:min(off+chunks[k%len(chunks)], len(us))]
		off += len(chunk)
		for s, in := range sides {
			if s == 1 {
				g = g[:0]
				for _, u := range chunk {
					g = append(g, Update{Index: u.Index ^ 1, Delta: u.Delta})
				}
				chunk = g
			}
			switch roles[s] {
			case batchRole:
				in.batch(chunk)
			case columnsRole:
				b := PlanBatch(chunk)
				in.columns(b)
				PutBatch(b)
			case itemRole:
				for _, u := range chunk {
					in.item(u.Index, u.Delta)
				}
			}
		}
	}
}

// partsOf returns f's five parts, built once: part j sketches a chunk
// of weight j+1 of the stream (15 units in all), so once sampled their
// exponents differ and part 0 is behind part 4.
func (f *fixture) partsOf() []Sketch {
	if f.parts == nil {
		unit := len(f.updates) / 15
		for j, at := range []int{0, 1, 3, 6, 10} {
			p := f.build()
			f.feed(p, f.updates[at*unit:(at+j+1)*unit], batchRole)
			f.parts = append(f.parts, p)
		}
	}
	return f.parts
}

// aligned returns copies of f's parts, heavy-hitters parts all at the
// exponent the clock of the five sets (what a fleet's ACK carries), so
// any k of them sum without a halving.
func (f *fixture) aligned(t *testing.T) []Sketch {
	parts := f.partsOf()
	out := make([]Sketch, len(parts))
	p, pos := 0, int64(0)
	for j, sk := range parts {
		out[j] = must(UnmarshalSketch(must(sk.MarshalBinary())))
		if hh, ok := sk.(*HeavyHitters); ok {
			p, pos = max(p, hh.SampleExponent()), pos+hh.SamplePosition()
		}
	}
	for _, sk := range out {
		if hh, ok := sk.(*HeavyHitters); ok {
			if err := hh.RaiseSampleExponent(max(p, hh.SampleExponentAt(pos))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// extra is a further stretch of f's stream: its first tenth again.
func (f *fixture) extra() []Update { return f.updates[:len(f.updates)/10] }

// probeKeys are the point reads answers makes.
var probeKeys = func() []uint64 {
	k := make([]uint64, 64)
	for i := range k {
		k[i] = uint64(i) * 61
	}
	return k
}()

// answers prints every answer sk's queries give: what two structures
// that answer alike agree on.
func answers(sk Sketch) string {
	var out []any
	if q, ok := sk.(interface{ HeavyHitters() []uint64 }); ok {
		out = append(out, q.HeavyHitters())
	}
	if q, ok := sk.(BatchPointQuerier); ok {
		out = append(out, q.EstimateBatch(probeKeys))
	}
	if q, ok := sk.(ScalarQuerier); ok {
		out = append(out, q.Estimate())
	}
	if q, ok := sk.(SampleQuerier); ok {
		r, ok := q.Sample()
		out = append(out, r, ok)
	}
	if q, ok := sk.(*SupportSampler); ok {
		out = append(out, q.Recover())
	}
	if q, ok := sk.(*SyncSketch); ok {
		d, err := q.Decode()
		out = append(out, d, err)
	}
	return fmt.Sprint(append(out, sk.SpaceBits())...)
}

// forEach runs check on each fixture name does not map to "": one
// subtest per kind and model, named by name, and under it one per
// regime.
func forEach(t *testing.T, name func(*fixture) string, check func(*testing.T, *fixture)) {
	fs := slices.DeleteFunc(slices.Clone(fixtures()), func(f *fixture) bool { return name(f) == "" })
	for i := 0; i < len(fs); {
		j := i
		for j < len(fs) && name(fs[j]) == name(fs[i]) {
			j++
		}
		t.Run(name(fs[i]), func(t *testing.T) {
			for _, f := range fs[i:j] {
				t.Run(f.regime, func(t *testing.T) { check(t, f) })
			}
		})
		i = j
	}
}

// fedBy returns f's stream fed through r on every side, built once.
func (f *fixture) fedBy(r role) Sketch {
	if r == batchRole {
		return f.whole
	}
	if f.byRole[r] == nil {
		f.byRole[r] = f.build()
		f.feed(f.byRole[r], f.updates, r)
	}
	return f.byRole[r]
}

// weaker pins, per property, the fixtures ("name/regime") where the
// property holds only in the weaker form its check states, as
// measured; a pin that names no fixture fails TestConformance.
var weaker = map[string][]string{
	// Per-item Update leaves other bytes than UpdateBatch: a tracker
	// (heavy hitters, L1 sampler, L2 heavy hitters) sees every update,
	// not each distinct key once; the strict L1 estimator's Morris clock
	// walks a batch in one draw per tick.
	"item bytes": {
		"HeavyHitters/rate1", "HeavyHitters/sampled", "HeavyHitters/general/rate1", "HeavyHitters/general/sampled",
		"L1Estimator/rate1", "L1Estimator/sampled", "L1Sampler/rate1", "L1Sampler/sampled",
		"L2HeavyHitters/rate1", "L2HeavyHitters/sampled",
	},
	// ... and once the strict L1 estimator's levels sample, other
	// answers: equal in law (l1.TestWalkMatchesPerUnitLaw), not in draws.
	"item answers": {"L1Estimator/sampled"},
	// A split merged at rate 1 leaves other bytes, answering alike: the
	// Cauchy sums (general L1, the general heavy hitters' scale) add
	// floats in another order, the strict L1 estimator's Morris clock
	// and the inner product's second level draw, the L1 sampler's
	// trackers rank by the merged estimates, and the windowed kinds
	// keep the live rows the sites' rough estimates gave them.
	"split bytes": {
		"HeavyHitters/general/rate1", "L1Estimator/rate1", "L1Estimator/general/rate1", "L0Estimator/rate1",
		"L1Sampler/rate1", "SupportSampler/rate1", "InnerProduct/rate1",
	},
	// ... and the L0 estimator's rows answer otherwise too.
	"split answers": {"L0Estimator/rate1"},
	// A Clone, or a query, of these moves what the source later writes:
	// a copy takes its seed word from the source's generator (ROADMAP
	// 4a), and SpaceBits folds a CSSS table's maximum into the maxCount
	// its state carries (the heavy hitters at rate 1, the L1 sampler).
	"reads move": {
		"HeavyHitters/rate1", "HeavyHitters/sampled", "HeavyHitters/general/rate1", "HeavyHitters/general/sampled",
		"L1Estimator/sampled", "L1Estimator/general/sampled", "L1Sampler/rate1", "L1Sampler/sampled",
		"InnerProduct/sampled",
	},
}

func (f *fixture) weaker(property string) bool {
	return slices.Contains(weaker[property], f.name()+"/"+f.regime)
}

// TestConformance checks that every kindTable row has its fixtures and
// that every pinned exception names one, then runs the properties no
// earlier test held: split invariance, clone isolation, and reads that
// move nothing.
func TestConformance(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range fixtures() {
		seen[f.name()+"/"+f.regime] = true
	}
	for k := KindHeavyHitters; k.valid(); k++ {
		for _, rg := range []string{"rate1", "sampled"} {
			if !seen[k.String()+"/"+rg] {
				t.Errorf("kind %s has no %s fixture: give it a row in conformanceKinds", k, rg)
			}
		}
	}
	for _, k := range []Kind{KindHeavyHitters, KindL1Estimator} {
		if !seen[k.String()+"/general/sampled"] {
			t.Errorf("kind %s has no general-model fixture", k)
		}
	}
	for property, names := range weaker {
		for _, n := range names {
			if !seen[n] {
				t.Errorf("%s: %s names no fixture", property, n)
			}
		}
	}
	forEach(t, (*fixture).name, func(t *testing.T, f *fixture) {
		if f.regime == "rate1" {
			t.Run("split", func(t *testing.T) { checkSplits(t, f) })
		}
		t.Run("clone", func(t *testing.T) { checkCloneIsolated(t, f) })
		t.Run("reads", func(t *testing.T) {
			if got := readsMove(f); got != f.weaker("reads move") {
				t.Errorf("a Clone and every query of the source move what it later writes: %v, pinned %v", got, !got)
			}
		})
	})
}

// checkSplits: the stream split over k sites by key, round robin, or
// with every deletion sent to the site after its key's, each site
// shipped and the k merged, is the stream sketched at one site — byte
// for byte at rate 1. A k-way kind ranks its candidates by the merged
// estimates, which need not pick the one site's, and keeps every byte
// before its tracker. Where the bytes differ (weaker: "split bytes")
// the merge still answers as the one site does. Sampled splits agree
// in distribution only, and are not run.
func checkSplits(t *testing.T, f *fixture) {
	same := func(merged Sketch) bool {
		got, want := must(merged.MarshalBinary()), f.blob
		if _, kw := merged.(kWay); kw {
			got, _, _ = splitTracker(t, merged)
			want, _, _ = splitTracker(t, must(UnmarshalSketch(f.blob)))
		}
		return bytes.Equal(got, want)
	}
	if !same(must(MergeAll(nil, []Sketch{must(UnmarshalSketch(f.blob))}))) {
		t.Fatal("one site merged is not its own bytes")
	}
	for _, split := range []struct {
		name string
		site func(j int, u Update, k int) int
	}{
		{"keys", func(_ int, u Update, k int) int { return int(u.Index % uint64(k)) }},
		{"round-robin", func(j int, _ Update, k int) int { return j % k }},
		{"delete-elsewhere", func(_ int, u Update, k int) int {
			if u.Delta < 0 {
				return int(u.Index+1) % k
			}
			return int(u.Index % uint64(k))
		}},
	} {
		for _, k := range []int{2, 4} {
			subs := make([][]Update, k)
			for j, u := range f.updates {
				s := split.site(j, u, k)
				subs[s] = append(subs[s], u)
			}
			sites := make([]Sketch, k)
			for s, sub := range subs {
				site := f.build()
				f.feed(site, sub, batchRole)
				sites[s] = must(UnmarshalSketch(must(site.MarshalBinary())))
			}
			merged := must(MergeAll(nil, sites))
			switch {
			case !f.weaker("split bytes") && !same(merged):
				t.Errorf("%s over %d sites, merged: bytes differ from one site's", split.name, k)
			case !f.weaker("split answers") && answers(merged) != f.said:
				t.Errorf("%s over %d sites, merged: answers differ from one site's", split.name, k)
			}
		}
	}
}

// checkCloneIsolated: a Clone, and a CloneInto recycled storage, is the
// source's bytes, and neither side's ingest reaches the other.
func checkCloneIsolated(t *testing.T, f *fixture) {
	src := must(UnmarshalSketch(f.blob))
	c := src.Clone()
	into := src.CloneInto(must(UnmarshalSketch(must(f.partsOf()[0].MarshalBinary()))))
	for _, cp := range []Sketch{c, into} {
		if !bytes.Equal(must(cp.MarshalBinary()), f.blob) {
			t.Fatal("a copy's bytes differ from its source's")
		}
	}
	c.UpdateBatch(f.extra())
	if !bytes.Equal(must(src.MarshalBinary()), f.blob) || !bytes.Equal(must(into.MarshalBinary()), f.blob) {
		t.Fatal("ingest into a clone moved its source or another copy")
	}
	src.UpdateBatch(f.extra())
	if !bytes.Equal(must(into.MarshalBinary()), f.blob) {
		t.Fatal("ingest into the source moved a copy")
	}
}

// readsMove reports whether a Clone and every query of a structure
// change what it writes after further ingest, against an unread twin.
func readsMove(f *fixture) bool {
	src, twin := must(UnmarshalSketch(f.blob)), must(UnmarshalSketch(f.blob))
	src.Clone()
	answers(src)
	src.UpdateBatch(f.extra())
	twin.UpdateBatch(f.extra())
	return !bytes.Equal(must(src.MarshalBinary()), must(twin.MarshalBinary()))
}

// TestSameSeedSameBytes is the determinism contract of doc.go: two
// instances built from one Config and fed one update sequence — in
// batches, or item by item — marshal to the same bytes, in the sampled
// regime too, where the L1 estimators and the inner product hold two
// sampled levels and the draw order between them decides the bytes.
func TestSameSeedSameBytes(t *testing.T) {
	forEach(t, (*fixture).name, func(t *testing.T, f *fixture) {
		for _, r := range []role{batchRole, itemRole} {
			again := f.build()
			f.feed(again, f.updates, r)
			if !bytes.Equal(must(again.MarshalBinary()), must(f.fedBy(r).MarshalBinary())) {
				t.Fatalf("two instances from one Config, fed one stream (role %d), marshal to different bytes", r)
			}
		}
	})
}

// TestIngestRolesAgree is the three-role ingest contract: UpdateBatch
// is plan + UpdateColumns and nothing else, so the same chunks fed
// either way leave the same bytes; and where a kind's batch path
// matches the per-item path as state, not only as answers, per-item
// Update leaves those bytes too. It does not for the tracker-bearing
// kinds — a batch offers each distinct index once with its final
// estimate, the per-item path after every update, so the candidate
// heap's layout can differ — nor for the strict L1 estimator, whose
// batch is one walk of its Morris clock (equal in law, not in draws:
// l1.TestWalkMatchesPerUnitLaw), nor where a sampled level draws per
// unit (weaker: "item bytes"). An inner product's g side is checked
// on its own.
func TestIngestRolesAgree(t *testing.T) {
	for _, side := range []string{"", "/f", "/g"} {
		name := func(f *fixture) string {
			if _, two := f.whole.(*InnerProduct); two != (side != "") {
				return ""
			}
			return f.name() + side
		}
		forEach(t, name, func(t *testing.T, f *fixture) {
			byColumns, byItem := f.fedBy(columnsRole), f.fedBy(itemRole)
			if side != "" {
				// The side under test takes the role, the other UpdateBatch.
				on := func(r role) [2]role {
					if side == "/g" {
						return [2]role{batchRole, r}
					}
					return [2]role{r, batchRole}
				}
				byColumns, byItem = f.build(), f.build()
				f.feedSides(byColumns, f.updates, on(columnsRole))
				f.feedSides(byItem, f.updates, on(itemRole))
			}
			if !bytes.Equal(must(byColumns.MarshalBinary()), f.blob) {
				t.Fatal("PlanBatch + UpdateColumns state differs from UpdateBatch state")
			}
			if got := bytes.Equal(must(byItem.MarshalBinary()), f.blob); got == f.weaker("item bytes") {
				t.Fatalf("per-item Update state equal to UpdateBatch state: %v, pinned %v", got, !got)
			}
		})
	}
}

// TestPublicUpdateColumns: a reader cannot tell which role fed a
// structure — per-item Update and PlanBatch + UpdateColumns answer
// every query alike, the tracker-bearing kinds' heavy hitters
// included.
func TestPublicUpdateColumns(t *testing.T) {
	forEach(t, (*fixture).name, func(t *testing.T, f *fixture) {
		if a, b := answers(f.fedBy(itemRole).Clone()), answers(f.fedBy(columnsRole).Clone()); a != b && !f.weaker("item answers") {
			t.Fatalf("per-item answers %s, columnar %s", a, b)
		}
	})
}

// TestShipMergeMatchesCloneMerge: marshal → ship → unmarshal → Merge
// into a peer answers as an in-process Clone + Merge does. The wire
// loses nothing a merge consumes: tables, trackers, clocks.
func TestShipMergeMatchesCloneMerge(t *testing.T) {
	forEach(t, (*fixture).joined, func(t *testing.T, f *fixture) {
		a, data := must(f.partsOf()[0].MarshalBinary()), must(f.partsOf()[4].MarshalBinary())
		inProc := must(UnmarshalSketch(a))
		if err := inProc.Merge(must(UnmarshalSketch(data)).Clone()); err != nil {
			t.Fatal(err)
		}
		if k, _ := SketchKind(data); k != f.kind {
			t.Fatalf("SketchKind = %v, want %v", k, f.kind)
		}
		overWire := must(UnmarshalSketch(a))
		if err := overWire.Merge(must(UnmarshalSketch(data))); err != nil {
			t.Fatal(err)
		}
		if got, want := answers(overWire), answers(inProc); got != want {
			t.Fatalf("wire-merged answers %s differ from clone-merged %s", got, want)
		}
	})
}

// TestMarshalRoundTripAnswers: Unmarshal(Marshal(s)) re-marshals to the
// same bytes and answers as s does; it keeps no view of its input (the
// envelope hands its payload to the decoder uncopied, so the bytes are
// overwritten before the restored structure is read); and its
// truncations are refused — every length below 16, then steps of an
// eighth of the cut (at most 1/64 of the blob), and all but the last
// byte: a decode of a long blob costs its length.
func TestMarshalRoundTripAnswers(t *testing.T) {
	forEach(t, (*fixture).joined, func(t *testing.T, f *fixture) {
		data := bytes.Clone(f.blob)
		restored := must(UnmarshalSketch(data))
		for i := range data {
			data[i] = 0xA5
		}
		if !bytes.Equal(must(restored.MarshalBinary()), f.blob) {
			t.Fatal("restored structure re-marshals differently once its input is overwritten")
		}
		if got, want := answers(restored), f.said; got != want {
			t.Fatalf("restored answers %s differ from the original's %s", got, want)
		}
		n := len(f.blob)
		for cut := 0; cut < n; cut += max(1, min(cut/8, n/64)) {
			if _, err := UnmarshalSketch(f.blob[:cut]); err == nil {
				t.Fatalf("the first %d of %d bytes decoded", cut, n)
			}
		}
		if _, err := UnmarshalSketch(f.blob[:n-1]); err == nil {
			t.Fatal("all bytes but the last decoded")
		}
	})
}

// appender exposes a public structure's unexported append to the wire
// package's nesting check.
type appender struct{ Sketch }

func (a appender) AppendBinary(dst []byte) ([]byte, error) {
	return appendBinary(dst, a.Sketch.(structure), 0)
}

// TestAppendBinaryMatchesMarshalBinary: every envelope obeys the wire
// nesting rule — appended behind any prefix it is the bytes
// MarshalBinary returns, the prefix untouched — its state runs to the
// end of the frame and is as long as the state says, and the size hint
// makes the whole frame cost one buffer.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	forEach(t, (*fixture).joined, func(t *testing.T, f *fixture) {
		wiretest.CheckAppend(t, appender{f.whole})
		wiretest.CheckGrowsOnce(t, appender{f.whole})
		env, err := parseEnvelope(f.blob, f.kind)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(env.payload); n == 0 || &env.payload[n-1] != &f.blob[len(f.blob)-1] {
			t.Fatalf("a %d-byte payload view does not end at the end of the %d-byte frame", n, len(f.blob))
		}
		if st, ok := f.whole.(structure).state().(interface{ EncodedLen() int }); ok && st.EncodedLen() != len(env.payload) {
			t.Fatalf("EncodedLen() = %d, the state is %d bytes", st.EncodedLen(), len(env.payload))
		}
	})
}

// TestRecycledDecodeMatchesFresh: UnmarshalSketchInto a retired
// structure of the blob's shape — after a refill that was refused half
// way, too — is a fresh decode's twin: the same bytes and answers, and
// the same again after both ingest more (the generator a decode seeds
// draws alike) and merge a peer. A HeavyHitters or L1Estimator is
// refilled in place; a retired structure of another shape, or a nil
// one, is left alone.
func TestRecycledDecodeMatchesFresh(t *testing.T) {
	forEach(t, (*fixture).modeled, func(t *testing.T, f *fixture) {
		same := func(step string, fresh, refilled Sketch) {
			t.Helper()
			if !bytes.Equal(must(fresh.MarshalBinary()), must(refilled.MarshalBinary())) {
				t.Fatalf("%s: the refilled structure's bytes differ from a fresh decode's", step)
			}
			if a, b := answers(fresh.Clone()), answers(refilled.Clone()); a != b {
				t.Fatalf("%s: the refilled structure answers %s, a fresh decode %s", step, b, a)
			}
		}
		retired := must(UnmarshalSketch(must(f.partsOf()[4].MarshalBinary())))
		if _, err := UnmarshalSketchInto(retired, f.blob[:len(f.blob)-8]); err == nil {
			t.Fatal("a truncated blob refilled without error")
		}
		got := must(UnmarshalSketchInto(retired, f.blob))
		if _, ok := retired.(refillable); ok != (got == retired) {
			t.Fatalf("refilled in place: %v, want %v", got == retired, ok)
		}
		fresh := must(UnmarshalSketch(f.blob))
		same("decoded", fresh, got)
		fresh.UpdateBatch(f.extra())
		got.UpdateBatch(f.extra())
		same("after further ingest", fresh, got)
		// One peer each: a merge may take a word of its argument's
		// generator, and the second would take the next.
		for _, sk := range []Sketch{fresh, got} {
			if err := sk.Merge(must(UnmarshalSketch(must(f.partsOf()[0].MarshalBinary())))); err != nil {
				t.Fatal(err)
			}
		}
		same("after a merge", fresh, got)
		other := f.cfg
		other.Eps /= 2
		foreign := must(kindTable[f.kind].build(other, f.opts...))
		if got, err := UnmarshalSketchInto(foreign, f.blob); err != nil || got == foreign {
			t.Fatalf("a retired structure of another shape was refilled (err %v)", err)
		}
		none := reflect.Zero(reflect.TypeOf(f.whole)).Interface().(Sketch)
		if _, err := UnmarshalSketchInto(none, f.blob); err != nil {
			t.Fatalf("decoding into a nil %T: %v", none, err)
		}
	})
}

// TestWireTracksSpaceBits: a state travels in about the bits SpaceBits
// charges it — 8·len(state) exceeds SpaceBits() by at most 7 bits per
// packed counter plus what the state carries outside its count columns
// (fixed headers, clocks, candidate ids and estimates, floats, field
// elements) — so the count columns alone take at most SpaceBits() plus
// 7 bits a counter, the rounding of a counter's bits up to whole
// bytes. The walk of each kind's layout (packedColumns) finds the
// columns, and must consume the state exactly.
func TestWireTracksSpaceBits(t *testing.T) {
	forEach(t, (*fixture).name, func(t *testing.T, f *fixture) {
		state := f.blob[stateAt(t, f.blob):]
		var p packedColumns
		if err := wire.Fill(state, walker(func(r *wire.Reader) { p.walk(r, f.whole.(structure).shapeOf()) })); err != nil {
			t.Fatalf("walking the state: %v", err)
		}
		// SpaceBits writes a CSSS table's maximum into its state: ask a copy.
		bits, charged := int64(8*len(state)), must(UnmarshalSketch(f.blob)).SpaceBits()
		if headers := int64(8 * (len(state) - p.bytes)); bits-charged > 7*p.entries+headers {
			t.Errorf("%d state bits, %d charged: %d packed counters in %d bytes, %d header bits", bits, charged, p.entries, p.bytes, headers)
		}
	})
}

// TestMergeReadsItsArgument is the Merge contract of sketch.go, with
// the receiver behind, level with and ahead of the argument's sampling
// exponent: a.Merge(b) leaves b's bytes and answers as they were (only
// alignment ever thinned b, and it thins a copy now), and at rate 1 the
// same b merged into two equal copies of a leaves equal bytes — b
// merges the second time as it did the first. The strict L1 estimator
// has no drawless regime: its Morris clock advances by a draw on every
// merge.
func TestMergeReadsItsArgument(t *testing.T) {
	for _, rg := range []string{"rate1", "sampled"} {
		for _, split := range []string{"behind", "level", "ahead"} {
			for _, f := range fixtures() {
				if f.regime != rg {
					continue
				}
				t.Run(rg+"/"+split+"/"+f.joined(), func(t *testing.T) {
					parts := f.partsOf()
					a, b := parts[0], parts[4]
					switch split {
					case "level":
						al := f.aligned(t)
						a, b = al[3], al[4]
					case "ahead":
						a, b = b, a
					}
					a = must(UnmarshalSketch(must(a.MarshalBinary())))
					if ha, ok := a.(*HeavyHitters); ok {
						pa, pb := ha.SampleExponent(), b.(*HeavyHitters).SampleExponent()
						sign := map[string]bool{"behind": pa < pb, "level": pa == pb, "ahead": pa > pb}[split]
						if rg == "rate1" && (pa != 0 || pb != 0) || rg == "sampled" && (min(pa, pb) < 1 || !sign) {
							t.Fatalf("exponents %d and %d do not put the receiver %s in the %s regime", pa, pb, split, rg)
						}
					}
					twin := a.Clone()
					before, answer := must(b.MarshalBinary()), answers(b.Clone())
					for _, dst := range []Sketch{a, twin} {
						if err := dst.Merge(b); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(must(b.MarshalBinary()), before) {
							t.Fatal("Merge changed its argument's encoding")
						}
						if got := answers(b.Clone()); got != answer {
							t.Fatalf("Merge changed its argument's answers: %s, was %s", got, answer)
						}
					}
					strictL1 := f.kind == KindL1Estimator && !f.general
					if rg == "rate1" && !strictL1 && !bytes.Equal(must(a.MarshalBinary()), must(twin.MarshalBinary())) {
						t.Fatal("one argument merged into two equal receivers left different bytes")
					}
				})
			}
		}
	}
}

// TestMergeAllMatchesChain is MergeAll's differential, 1 to 5 parts,
// at rate 1, sampled with every part at one exponent (aligned: the
// table sum runs) and sampled at different exponents (unaligned:
// csss.Merge runs per part). Against the pairwise chain —
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
	rng := rand.New(rand.NewSource(8))
	for _, variant := range []string{"rate1", "aligned", "unaligned"} {
		for _, f := range fixtures() {
			if (f.regime == "rate1") != (variant == "rate1") {
				continue
			}
			live := f.partsOf()
			if variant == "aligned" {
				live = f.aligned(t)
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
			for k := 1; k <= len(live); k++ {
				t.Run(fmt.Sprintf("%s/%s/parts=%d", variant, f.joined(), k), func(t *testing.T) {
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
						return
					}
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
					if variant == "unaligned" {
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
