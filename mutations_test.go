package bounded

import (
	"os"
	"strings"
	"testing"
)

// The mutation catalog: defects the tests must catch, as data. An entry
// edits one file of the tree — its one occurrence of old becomes new —
// and names the test expected to fail on the result. TestMutants
// (mutants_test.go, build tag mutants) builds each mutant with
// go test -overlay, so no run writes the tree, and logs every top-level
// test that fails on it. A test may be deleted while every entry it
// kills keeps another killer; a mutation no test catches is a finding,
// not an entry.
//
//	go test -tags mutants -run '^TestMutants$' -count=1 -timeout 30m -v .
//	go test -tags mutants -run '^TestMutants$/^ExactSmall' -count=1 -v .
type mutation struct {
	name   string // the defect, in words: the subtest's name
	file   string // slash-separated, from the repository root
	killer string // "import/path TestName": a top-level test that fails
	old    string // occurs exactly once in file
	new    string
}

var mutations = []mutation{
	// Defects CHANGES.md records as checked by hand on scratch copies,
	// and past fixes undone.
	{"ExactSmall.Merge charges past c", "internal/l0/exact.go", "repro TestConformance",
		"e.maxLive = max(e.maxLive, min(e.counters.n, e.c))", "e.maxLive = max(e.maxLive, e.counters.n)"},
	{"level-mask kernel without the zero-level OR", "internal/hash/kernels_amd64.s", "repro/internal/hash TestKernelFusedRowsBitIdentical",
		"VPOR    Y13, Y2, Y2 // w = v | 1<<60", "// w = v"},
	{"level-mask kernel without its tail", "internal/hash/kernel_amd64.go", "repro/internal/hash TestKernelFusedRowsBitIdentical",
		"masks[i] |= levelMaskRowScalar(flat[2*i], flat[2*i+1], keys[m:])", "masks[i] |= 0"},
	{"LevelBit without level 60", "internal/hash/hash.go", "repro/internal/hash TestKernelFusedRowsBitIdentical",
		"\tv |= zeroLevel\n\treturn v & -v", "\treturn v & -v"},
	{"Window.Sync skips its top level", "internal/sample/window.go", "repro/internal/sample FuzzWindowDifferential",
		"for j := lo; j <= hi; j++ {\n\t\tif w.At(j) == nil {", "for j := lo; j < hi; j++ {\n\t\tif w.At(j) == nil {"},
	{"Window.Merge leaves the window synced", "internal/sample/window.go", "repro/internal/sample FuzzWindowDifferential",
		"\tw.from, w.last = 1, 0\n", ""},
	{"sparse divides past its limit", "internal/sparse/sparse.go", "repro/internal/sparse TestDecodeEdgeCounts",
		"if a <= limit {", "if a <= limit+1 {"},
	{"sparse singleton test without its zero-count guard", "internal/sparse/sparse.go", "repro/internal/sparse TestRecoveryColumnarMatchesScalar",
		"\tif c.count == 0 {\n\t\treturn 0, 0, false\n\t}\n\ta, sum := ", "\ta, sum := "},
	{"CSSS decode without the sign check", "internal/csss/marshal.go", "repro/internal/csss TestSketchRefusesPatchedSignBit",
		"if int64(or) < 0 {", "if int64(or) < 0 && false {"},
	{"CSSS Merge halves its argument in place", "internal/csss/csss.go", "repro TestMergeReadsItsArgument",
		"thin.table = slices.Clone(other.table)", "thin.table = slices.Clip(other.table)"},
	{"CSSS coalescing lanes not cleared", "internal/csss/csss.go", "repro/internal/csss TestUpdateColumnsCoalescedCases",
		"\tclear(lanes)\n\tpacked, rng", "\tpacked, rng"},
	{"CSSS lane sweep swaps the sides", "internal/csss/csss.go", "repro/internal/csss TestUpdateColumnsCoalescedCases",
		"cl[g] += int64((lanes[2*t] >> shift & laneMax) * wfp)\n\t\tcl[g^1] += ", "cl[g^1] += int64((lanes[2*t] >> shift & laneMax) * wfp)\n\t\tcl[g] += "},
	{"CSSS lane multiplier bit 15 at 14", "internal/csss/csss.go", "repro/internal/csss TestUpdateColumnsCoalescedCases",
		"laneSpread = 1 | 1<<15 |", "laneSpread = 1 | 1<<14 |"},
	{"ExactSmall latch keeps its table", "internal/l0/exact.go", "repro/internal/l0 TestLatchMatchesParentBody",
		"\te.overflow = true\n\te.counters = bucketTable{}\n", "\te.overflow = true\n"},
	{"ExactSmall latches on a counted key at the bound", "internal/l0/exact.go", "repro/internal/l0 TestLatchMatchesParentBody",
		"if t.n >= e.c && t.cells[i].count == 0 {", "if t.n >= e.c {"},
	{"Tracker.Offer leaves the slab marked whole", "internal/topk/topk.go", "repro/internal/heavy TestAlphaL1ColumnarMatchesScalar",
		"if t.offer(i, est, int32(len(t.heap))) >= 0 {\n\t\tt.stale = true\n\t}", "t.offer(i, est, int32(len(t.heap)))"},
	{"Over keeps only estimates above the threshold", "internal/topk/union.go", "repro/internal/topk TestOverMatchesMergeAllRead",
		"v >= thr {", "v > thr {"},
	{"Over without the dedupe", "internal/topk/union.go", "repro/internal/topk TestOverMatchesMergeAllRead",
		"\tkept = slices.CompactFunc(kept, func(a, b entry) bool { return a.id == b.id })\n", ""},
	{"count column admits width 9", "internal/wire/packed.go", "repro/internal/wire TestPackedRefusesWidth",
		"high > 8)", "high > 9)"},
	{"count column without the minimal-layout check", "internal/wire/packed.go", "repro/internal/wire TestPackedRefusesWhatNoWriterWrites",
		"if l := h.layout(); l != (Layout", "if l := h.layout(); false && l != (Layout"},
	{"AlphaL1.Reset keeps its tracker", "internal/heavy/heavy.go", "repro TestRecycledDecodeMatchesFresh",
		"func (h *AlphaL1) Reset() {\n\th.tracker.Reset()\n", "func (h *AlphaL1) Reset() {\n"},
	{"AlphaEstimator.Reset does nothing", "internal/l1/l1.go", "repro TestRecycledDecodeMatchesFresh",
		"func (a *AlphaEstimator) Reset() { a.win.Reset() }", "func (a *AlphaEstimator) Reset() {}"},
	{"public body without the zero-value guard", "body.go", "repro TestZeroValueIngestAndCopyDiagnostics",
		"\tif b.kind == 0 {\n\t\tname := ", "\tif false {\n\t\tname := "},
	{"Merge without the shape check", "body.go", "repro TestMergeRefusesEveryMismatch",
		"return ob, b.admits(ob.shape)", "return ob, nil"},
	{"AlphaEstimator.Merge without the maxCount fold", "internal/l1/l1.go", "repro TestConformance",
		"\ta.sample(0, 0) // folds the summed counters into maxCount\n", ""},
	{"Cauchy add wraps instead of saturating", "internal/cauchy/cauchy.go", "repro/internal/cauchy TestSaturatingAdd",
		"if (a^s)&(b^s) < 0 {", "if false {"},
	{"SampledSketch.Fill keeps a peak below its counters", "internal/cauchy/marshal.go", "repro/internal/cauchy TestCraftedLevelLists",
		"\t\tfor _, v := range lv.c { // as in Sketch.Fill\n\t\t\ts.widen(v)\n\t\t}\n", ""},
	{"Sketch.Fill keeps a peak below its counters", "internal/cauchy/marshal.go", "repro/internal/cauchy TestSketchMarshalRoundTrip",
		"\tfor _, v := range s.lv.c { // a crafted peak may sit below the counters\n\t\ts.widen(v)\n\t}\n", ""},
	// ROADMAP 2b's defects that the tree already catches; its
	// under-sized structures survive (CHANGES.md, FOUND).
	{"CSSS halves with probability 0.45", "internal/csss/csss.go", "repro/internal/csss TestUnbiasedUnderSampling",
		"cl[0] = sample.Half(rng, cl[0])\n\t\tcl[1] = sample.Half(rng, cl[1])", "cl[0] = sample.Binomial(rng, cl[0], 0.45)\n\t\tcl[1] = sample.Binomial(rng, cl[1], 0.45)"},
	{"Half rounds up", "internal/sample/sample.go", "repro/internal/sample TestHalfMoments",
		"\tif c <= halfExactLimit {\n", "\tif c <= halfExactLimit {\n\t\treturn (c + 1) / 2\n\t}\n\tif false {\n"},
	{"Tracker drops its smallest candidate early", "internal/topk/topk.go", "repro/internal/topk TestKeepsLargest",
		"if len(t.heap) < t.limit {", "if len(t.heap) < t.limit-1 {"},
	// The properties the per-package copies of the battery check: the
	// nesting rule, clone isolation and the round trip.
	{"CSSS AppendBinary drops what dst held", "internal/csss/marshal.go", "repro/internal/csss TestAppendBinaryMatchesMarshalBinary",
		"w := wire.State(wire.Grow(dst, LenAt(l)))", "w := wire.State(wire.Grow(dst[len(dst):], LenAt(l)))"},
	{"CSSS clone shares its table", "internal/csss/csss.go", "repro TestConformance",
		"core.Grow(&dst.table, len(s.table))", "s.table"},
	{"CSSS encodes exponent 0", "internal/csss/marshal.go", "repro TestConformance",
		"w.U32(uint32(s.p))", "w.U32(0)"},
	{"CSSS Fill restores position 0", "internal/csss/marshal.go", "repro TestConformance",
		"s.t, s.p, s.haveLast, s.halved = t, p, false, 0", "s.t, s.p, s.haveLast, s.halved = 0, p, false, 0"},
	{"Tracker encodes estimates as 0", "internal/topk/marshal.go", "repro TestMarshalRoundTripAnswers",
		"math.Float64bits(t.heap[i].est)", "math.Float64bits(0)"},
	{"Tracker.Fill skips the first entry", "internal/topk/marshal.go", "repro TestMarshalRoundTripAnswers",
		"for i := 0; i < n && r.Err() == nil; i++ {", "for i := 1; i < n && r.Err() == nil; i++ {"},
	{"AlphaEstimator encodes no unit count", "internal/l1/marshal.go", "repro/internal/l1 TestUnitUpdatesKeepParentBytes",
		"w.I64(a.units)", "w.I64(0)"},
	{"AlphaEstimator encodes its exact clock at 0", "internal/l1/marshal.go", "repro/internal/l1 TestUnitUpdatesKeepParentBytes",
		"w.I64(c.t)\n\t\tw.I64(c.t)", "w.I64(0)\n\t\tw.I64(0)"},
	{"SampledSketch encodes every level start as 0", "internal/cauchy/marshal.go", "repro/internal/cauchy TestCraftedLevelLists",
		"w.I64(lv.start)", "w.I64(0)"},
}

// TestMutationSnippets holds the catalog to the tree: every old snippet
// occurs exactly once in its file, so a change that moves mutated code
// fails here, naming the entry, instead of in the mutants run.
func TestMutationSnippets(t *testing.T) {
	names := map[string]bool{}
	for _, m := range mutations {
		if names[m.name] {
			t.Errorf("%s: two entries share the name", m.name)
		}
		names[m.name] = true
		src, err := os.ReadFile(m.file)
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Errorf("%s: old snippet occurs %d times in %s, want once", m.name, n, m.file)
		}
		if m.old == m.new {
			t.Errorf("%s: the replacement is the old snippet", m.name)
		}
		if pkg, test, ok := strings.Cut(m.killer, " "); !ok || !strings.HasPrefix(pkg, "repro") || !strings.HasPrefix(test, "Test") && !strings.HasPrefix(test, "Fuzz") {
			t.Errorf("%s: killer %q is not \"import/path TestName\"", m.name, m.killer)
		}
	}
}
