package core

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/stream"
)

// requirePlan holds b's distinct plan to the definition: keys are the
// distinct indices in first-occurrence order, and every update's slot
// names its own index.
func requirePlan(t *testing.T, b *Batch) {
	t.Helper()
	var want []uint64
	at := make(map[uint64]uint32)
	for _, i := range b.Idx {
		if _, ok := at[i]; !ok {
			at[i] = uint32(len(want))
			want = append(want, i)
		}
	}
	keys, slot := Distinct(b)
	if !slices.Equal(keys, want) {
		t.Fatalf("distinct keys %v, want first-occurrence order %v", keys, want)
	}
	if len(slot) != len(b.Idx) {
		t.Fatalf("%d slots for %d updates", len(slot), len(b.Idx))
	}
	for j, i := range b.Idx {
		if slot[j] != at[i] {
			t.Fatalf("update %d (index %d) has slot %d, want %d", j, i, slot[j], at[i])
		}
	}
}

// TestDistinctPlan: the plan against its definition on the shapes that
// stress the table — all-distinct, all-identical, dense duplicates,
// keys a multiple of a large power of two apart (which a hash that kept
// low bits would pile into one chain), lengths on both sides of a table
// doubling — one after another on one goroutine, so every plan after
// the first runs over the stale cells the pooled table kept from the
// plans before it.
func TestDistinctPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := new(Batch)
	for _, n := range []int{0, 1, 2, 3, 64, 65, 1000, 4096, 5, 4097, 1} {
		for _, shape := range []string{"distinct", "identical", "dense", "strided"} {
			b.Reset()
			for j := 0; j < n; j++ {
				var k uint64
				switch shape {
				case "distinct":
					k = uint64(j)*0x9E3779B97F4A7C15 + 7
				case "identical":
					k = 1 << 63
				case "dense":
					k = uint64(rng.Intn(n/3 + 1))
				case "strided":
					k = uint64(rng.Intn(n/2+1)) << 48
				}
				b.Append(k, int64(j))
			}
			requirePlan(t, b)
		}
	}
}

// TestDistinctPlanInvalidation: a plan computed before the index column
// changed must not be served after it. Each writer is exercised against
// a plan computed just before.
func TestDistinctPlanInvalidation(t *testing.T) {
	b := new(Batch)
	b.LoadUpdates([]stream.Update{{Index: 5, Delta: 1}, {Index: 6, Delta: 1}, {Index: 5, Delta: -1}})
	requirePlan(t, b)
	keys, slot := Distinct(b)
	if k2, s2 := Distinct(b); &k2[0] != &keys[0] || &s2[0] != &slot[0] || len(k2) != 2 {
		t.Fatal("a second Distinct on an unchanged batch did not serve the cached plan")
	}

	b.Append(9, 1) // a new key, and a fourth update
	requirePlan(t, b)
	b.Append(6, 1) // a fifth update, no new key
	requirePlan(t, b)

	b.Reset() // the same length again, other keys: the old slots would fit
	for _, k := range []uint64{6, 6, 5, 9, 9} {
		b.Append(k, 1)
	}
	requirePlan(t, b)

	b.LoadUpdates([]stream.Update{{Index: 9, Delta: 1}, {Index: 9, Delta: 1}, {Index: 9, Delta: 1}, {Index: 1, Delta: 1}, {Index: 9, Delta: 1}})
	requirePlan(t, b)
	b.LoadKeys([]uint64{4, 4, 8, 4, 2})
	requirePlan(t, b)
	b.Reset()
	requirePlan(t, b)
}

// TestPlanTableGenerationWrap: after 2^32 plans the stamp comes round,
// and the cells of the plan that last wore it must not read as live.
func TestPlanTableGenerationWrap(t *testing.T) {
	tab := new(planTable)
	plan := func(idx ...uint64) []uint64 {
		keys, slot := make([]uint64, len(idx)+1), make([]uint32, len(idx))
		d := tab.build(idx, keys, slot)
		for j, i := range idx {
			if keys[slot[j]] != i || int(slot[j]) >= d {
				t.Fatalf("update %d (index %d) has slot %d of %d keys %v", j, i, slot[j], d, keys[:d])
			}
		}
		return keys[:d]
	}
	plan(10, 11, 12, 10) // generation 1 stamps the cells of 10, 11, 12
	tab.gen = ^uint32(0) - 1
	plan(12, 13, 12, 14) // the last generation before the wrap
	// Every key below was stamped by one of the two plans above; a
	// stamp of 1 must not revive the first plan's cells, nor a stamp
	// left at 2^32 - 1 the second's.
	if got := plan(11, 10, 12, 13); !slices.Equal(got, []uint64{11, 10, 12, 13}) || tab.gen != 1 {
		t.Fatalf("the plan across the wrap has keys %v at generation %d, want all four at generation 1", got, tab.gen)
	}
	if got := plan(13, 10, 13); !slices.Equal(got, []uint64{13, 10}) {
		t.Fatalf("the plan after the wrap has keys %v", got)
	}
}

// TestSplitPlannablePieces: a batch too long to plan is fed in
// consecutive plannable pieces that together are the batch. (The real
// bound is 2^32 - 1 updates; the split is exercised at a small one.)
func TestSplitPlannablePieces(t *testing.T) {
	b := new(Batch)
	if !Plannable(b) {
		t.Fatal("an empty batch must be plannable")
	}
	for j := 0; j < 10; j++ {
		b.Append(uint64(j%4), int64(j))
	}
	var idx []uint64
	var deltas []int64
	var lens []int
	b.split(4, func(p *Batch) {
		requirePlan(t, p)
		lens = append(lens, p.Len())
		idx = append(idx, p.Idx...)
		deltas = append(deltas, p.Delta...)
		p.Append(99, 99) // a piece that grows must not write into its neighbour
	})
	if !slices.Equal(lens, []int{4, 4, 2}) {
		t.Fatalf("piece lengths %v, want [4 4 2]", lens)
	}
	if !slices.Equal(idx, b.Idx) || !slices.Equal(deltas, b.Delta) {
		t.Fatalf("pieces hold (%v, %v), want the batch's columns (%v, %v)", idx, deltas, b.Idx, b.Delta)
	}
	calls := 0
	Split(b, func(p *Batch) {
		calls++
		if p.Len() != b.Len() {
			t.Fatalf("Split cut a plannable batch into a piece of %d", p.Len())
		}
	})
	if calls != 1 {
		t.Fatalf("Split made %d calls for a plannable batch, want 1", calls)
	}
}

// TestPlanAllocationFree: building the plan of a batch that has seen
// its working size allocates nothing — the table is stamped, not
// cleared, and the columns are reused.
func TestPlanAllocationFree(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose, so there the table pool allocates by design.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				t.Skip("sync.Pool drops Puts under -race")
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	b := GetBatch()
	defer PutBatch(b)
	fill := func() {
		b.Reset()
		for j := 0; j < 4096; j++ {
			b.Append(uint64(rng.Intn(3000)), 1)
		}
	}
	fill()
	Distinct(b) // warm: sizes the table and the columns
	if allocs := testing.AllocsPerRun(50, func() {
		fill()
		Distinct(b)
	}); allocs != 0 {
		t.Fatalf("planning a warm batch allocated %.1f times per batch, want 0", allocs)
	}
}

// TestPlanScratchFollowsRetainCap: plan columns grown by one huge batch
// leave with it — PutBatch drops a batch whose plan outgrew the retain
// cap exactly as it drops one whose update columns did.
func TestPlanScratchFollowsRetainCap(t *testing.T) {
	b := GetBatch()
	b.LoadKeys(make([]uint64, maxRetainedCap+1))
	Distinct(b)
	b.Idx = make([]uint64, 0, 8) // the plan alone is oversized now
	b.Reset()
	before := ArenaStats().Oversized
	PutBatch(b)
	if got := ArenaStats().Oversized - before; got != 1 {
		t.Fatalf("PutBatch kept a batch whose plan holds %d slots (oversized drops: %d)", cap(b.slot), got)
	}
}

// probeSteps is the number of steps past their home cells the keys of
// the plan last built in tab lie, summed: what the linear probe walked
// to place them, give or take the order of insertion.
func probeSteps(tab *planTable, n int) (steps uint64) {
	lg := uint(0)
	for 1<<lg < 2*n {
		lg++
	}
	for at, c := range tab.cells[:1<<lg] {
		if c.gen == tab.gen {
			steps += (uint64(at) - (c.key^planKey)*0x9E3779B97F4A7C15>>(64-lg)) & (1<<lg - 1)
		}
	}
	return steps
}

// TestPlanTableKeyedAgainstChosenKeys: the keys i / phi mod 2^64 all
// home to cell 0 under the unkeyed Fibonacci hash — a plan quadratic in
// the batch length. Under the process's own key, which no sender knows,
// the same batch plans like random keys: within two probe steps per
// update (3000 draws of the key read 0.50 to 0.62). Runs of consecutive
// keys, the constant's best case, stay collision-free under any key.
func TestPlanTableKeyedAgainstChosenKeys(t *testing.T) {
	const n, phi = 4096, 0x9E3779B97F4A7C15
	inv := uint64(1) // phi^-1 mod 2^64, by Newton's iteration
	for i := 0; i < 6; i++ {
		inv *= 2 - phi*inv
	}
	chosen, run := make([]uint64, n), make([]uint64, n)
	for i := range chosen {
		chosen[i], run[i] = uint64(i)*inv, 1<<40+uint64(i)
	}
	keys, slot := make([]uint64, n+1), make([]uint32, n)
	defer func(k uint64) { planKey = k }(planKey)
	tab := new(planTable)
	if d := tab.build(chosen, keys, slot); d != n {
		t.Fatalf("%d distinct keys, want %d", d, n)
	}
	if steps := probeSteps(tab, n); steps > 2*n {
		t.Fatalf("the keyed table walked %d probe steps for %d chosen keys, bound %d", steps, n, 2*n)
	}
	tab.build(run, keys, slot)
	if steps := probeSteps(tab, n); steps != 0 {
		t.Fatalf("consecutive keys walked %d probe steps under the process's key, want none", steps)
	}
	planKey = 0
	tab.build(chosen, keys, slot)
	if steps := probeSteps(tab, n); steps != n*(n-1)/2 {
		t.Fatalf("unkeyed, the chosen keys walk %d steps, want the full quadratic %d: the test lost its adversary", steps, n*(n-1)/2)
	}
}

// TestPlanIndependentOfKey: the plan is a function of the index column
// alone — same keys, same slots, same first positions under any table
// key — so nothing a structure marshals can depend on the process it ran
// in (TestSameSeedSameBytes at the root holds that end).
func TestPlanIndependentOfKey(t *testing.T) {
	defer func(k uint64) { planKey = k }(planKey)
	rng := rand.New(rand.NewSource(3))
	b := new(Batch)
	for j := 0; j < 3000; j++ {
		b.Append(uint64(rng.Intn(900))<<uint(rng.Intn(50)), 1)
	}
	var keys0 []uint64
	var slot0, first0 []uint32
	for i, key := range []uint64{planKey, 0, 0x9E3779B97F4A7C15, 0xFFFFFFFFFFFFFFFF} {
		planKey = key
		b.planned = false
		requirePlan(t, b)
		keys, slot := Distinct(b)
		first := First(b)
		if i == 0 {
			keys0, slot0, first0 = slices.Clone(keys), slices.Clone(slot), slices.Clone(first)
		}
		if !slices.Equal(keys, keys0) || !slices.Equal(slot, slot0) || !slices.Equal(first, first0) {
			t.Fatalf("the plan under table key %#x differs from the one under the process's", key)
		}
	}
}

// TestFirstPositions: first[o] is where key o first occurs, one past the
// last key the batch length; rebuilt with the plan, never served stale.
func TestFirstPositions(t *testing.T) {
	b := new(Batch)
	check := func() {
		t.Helper()
		keys, _ := Distinct(b)
		first := First(b)
		if len(first) != len(keys)+1 || int(first[len(keys)]) != b.Len() {
			t.Fatalf("first has %d entries ending in %d for %d keys of %d updates", len(first), first[len(first)-1], len(keys), b.Len())
		}
		for o, k := range keys {
			if got, want := int(first[o]), slices.Index(b.Idx, k); got != want {
				t.Fatalf("key %d (ordinal %d) first occurs at %d, First says %d", k, o, want, got)
			}
		}
	}
	check() // empty
	for _, k := range []uint64{7, 7, 3, 7, 9, 3, 3, 11} {
		b.Append(k, 1)
		check()
	}
	b.LoadUpdates([]stream.Update{{Index: 3}, {Index: 3}, {Index: 7}})
	check()
	b.Reset()
	check()
}
