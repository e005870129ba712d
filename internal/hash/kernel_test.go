package hash

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/nt"
)

// kernelKeyCases returns key columns that stress every kernel path:
// field-boundary values, lazy-reduction extremes, adjacent duplicates
// (the scalar memo), and lengths on both sides of the per-family
// cutovers — short columns route to the scalar twins by the cutover,
// so only lengths >= the family bar (with every sub-4 tail residue)
// actually reach the vector bodies. The fixed lengths straddle the
// 512 default; tests that must straddle the CALIBRATED bars derive
// lengths from cutoverValues directly (see fusedLengths).
func kernelKeyCases(rng *rand.Rand) [][]uint64 {
	const p = nt.MersennePrime61
	adversarial := []uint64{
		0, 1, 2, p - 1, p, p + 1, 1 << 61, (1 << 61) + 1,
		1<<62 - 1, 1 << 62, 1<<32 - 1, 1 << 32, math.MaxUint64,
		math.MaxUint64 - 1, p << 2, p<<2 + 3,
	}
	cases := [][]uint64{nil, adversarial}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 100, 257, 511, 512, 513, 514, 515, 700} {
		keys := make([]uint64, n)
		for j := range keys {
			switch rng.Intn(4) {
			case 0:
				keys[j] = adversarial[rng.Intn(len(adversarial))]
			case 1:
				if j > 0 {
					keys[j] = keys[j-1] // adjacent duplicate
				} else {
					keys[j] = rng.Uint64()
				}
			default:
				keys[j] = rng.Uint64()
			}
		}
		cases = append(cases, keys)
	}
	return cases
}

// vectorTables returns every registered non-scalar kernel table (empty
// when the build or CPU has none — the test then passes vacuously,
// and the scalar kernels are covered by the batch differential tests).
func vectorTables() []*kernelTable {
	var vts []*kernelTable
	for _, t := range tables {
		if t != &scalarTable {
			vts = append(vts, t)
		}
	}
	return vts
}

func TestKernelFieldBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, vt := range vectorTables() {
		for ci, keys := range kernelKeyCases(rng) {
			c0, c1 := rng.Uint64()%nt.MersennePrime61, rng.Uint64()%nt.MersennePrime61
			c2, c3 := rng.Uint64()%nt.MersennePrime61, rng.Uint64()%nt.MersennePrime61
			n := len(keys)
			want, got := make([]uint64, n), make([]uint64, n)
			scalarTable.fieldK2(c0, c1, keys, want)
			vt.fieldK2(c0, c1, keys, got)
			for j := range keys {
				if got[j] != want[j] {
					t.Fatalf("kernel %s fieldK2 case=%d key[%d]=%#x: got %d, want %d",
						vt.name, ci, j, keys[j], got[j], want[j])
				}
			}
			scalarTable.fieldK4(c0, c1, c2, c3, keys, want)
			vt.fieldK4(c0, c1, c2, c3, keys, got)
			for j := range keys {
				if got[j] != want[j] {
					t.Fatalf("kernel %s fieldK4 case=%d key[%d]=%#x: got %d, want %d",
						vt.name, ci, j, keys[j], got[j], want[j])
				}
			}
		}
	}
}

func TestKernelRangeK2BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, vt := range vectorTables() {
		for _, r := range []uint64{1, 2, 3, 1 << 16, 1<<32 - 1, 1 << 32, 1 << 60, math.MaxUint64} {
			for ci, keys := range kernelKeyCases(rng) {
				c0, c1 := rng.Uint64()%nt.MersennePrime61, rng.Uint64()%nt.MersennePrime61
				n := len(keys)
				want, got := make([]uint64, n), make([]uint64, n)
				scalarTable.rangeK2(c0, c1, r, keys, want)
				vt.rangeK2(c0, c1, r, keys, got)
				for j := range keys {
					if got[j] != want[j] {
						t.Fatalf("kernel %s rangeK2 r=%d case=%d key[%d]=%#x: got %d, want %d",
							vt.name, r, ci, j, keys[j], got[j], want[j])
					}
				}
			}
		}
	}
}

func TestKernelMedianOf7ColsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, vt := range vectorTables() {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 65, 257, 511, 512, 513, 514, 515, 700} {
			est := make([]float64, 7*n)
			for i := range est {
				switch rng.Intn(5) {
				case 0:
					est[i] = 0
				case 1:
					est[i] = float64(rng.Intn(4)) - 1.5
				default:
					est[i] = rng.NormFloat64() * 1e6
				}
			}
			want, got := make([]float64, n), make([]float64, n)
			scalarTable.medianOf7Cols(est, want)
			vt.medianOf7Cols(est, got)
			col := make([]float64, 7)
			for j := 0; j < n; j++ {
				if got[j] != want[j] {
					t.Fatalf("kernel %s median n=%d col=%d: got %v, want %v", vt.name, n, j, got[j], want[j])
				}
				for r := 0; r < 7; r++ {
					col[r] = est[r*n+j]
				}
				sort.Float64s(col)
				if want[j] != col[3] {
					t.Fatalf("scalar median n=%d col=%d: got %v, sorted median %v", n, j, want[j], col[3])
				}
			}
		}
	}
}

// fusedLengths derives per-row column lengths that straddle the
// family's CALIBRATED cutover for a fused rows-way call: rows*n lands
// below, at and above cutoverValues[fam], with every sub-4 tail
// residue represented on both sides.
func fusedLengths(fam kernelFamily, rows int) []int {
	per := cutoverValues[fam] / rows
	ns := []int{0, 1, 2, 3, 4, 5, 7}
	for _, d := range []int{-2, -1, 0, 1, 2, 3, 4, 5} {
		if n := per + d; n > 0 {
			ns = append(ns, n)
		}
	}
	ns = append(ns, 2*per+1, 2*per+2, 2*per+3)
	return ns
}

// TestKernelFusedRowsBitIdentical pins every fused all-rows kernel to
// its scalar twin across every registered vector table, for every row
// count 1..8 and lengths straddling the calibrated cutovers; at rows 1
// and 7 it adds the adversarial columns: kernelKeyCases (field-boundary
// keys, runs of duplicates) under narrow, typical and 2^32-1 row
// widths, and gather tables holding both int64 extremes.
func TestKernelFusedRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, vt := range vectorTables() {
		checkBuckets := func(flat []uint64, rows int, r uint64, keys []uint64) {
			t.Helper()
			n := len(keys)
			wantCols, gotCols := make([]uint32, rows*n), make([]uint32, rows*n)
			wantSigns, gotSigns := make([]int8, rows*n), make([]int8, rows*n)
			scalarTable.bucketSignsRows(flat, rows, r, keys, wantCols, wantSigns)
			vt.bucketSignsRows(flat, rows, r, keys, gotCols, gotSigns)
			for j := range wantCols {
				if gotCols[j] != wantCols[j] || gotSigns[j] != wantSigns[j] {
					t.Fatalf("kernel %s bucketSignsRows rows=%d r=%d n=%d out[%d]: got (%d,%d), want (%d,%d)",
						vt.name, rows, r, n, j, gotCols[j], gotSigns[j], wantCols[j], wantSigns[j])
				}
			}
		}
		// checkGathers draws rows*n indices and signs over a rows x tsize
		// table (cells: the same shape two-sided) and compares both
		// gather kernels.
		checkGathers := func(table, cells []int64, tsize, rows, n int) {
			t.Helper()
			idx := make([]uint32, rows*n)
			signs := make([]int8, rows*n)
			for j := range idx {
				idx[j] = uint32(rng.Intn(tsize))
				signs[j] = 1 - int8(rng.Intn(2))<<1
			}
			want, got := make([]int64, rows*n), make([]int64, rows*n)
			scalarTable.gatherSignRows(table, tsize, rows, idx, signs, want)
			vt.gatherSignRows(table, tsize, rows, idx, signs, got)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("kernel %s gatherSignRows rows=%d n=%d out[%d] idx=%d sign=%d: got %d, want %d",
						vt.name, rows, n, j, idx[j], signs[j], got[j], want[j])
				}
			}
			scalarTable.gatherSignDiffRows(cells, 2*tsize, rows, idx, signs, want)
			vt.gatherSignDiffRows(cells, 2*tsize, rows, idx, signs, got)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("kernel %s gatherSignDiffRows rows=%d n=%d out[%d]: got %d, want %d",
						vt.name, rows, n, j, got[j], want[j])
				}
			}
		}
		for rows := 1; rows <= 8; rows++ {
			flat := make([]uint64, 4*rows)
			for i := range flat {
				flat[i] = rng.Uint64() % nt.MersennePrime61
			}
			for _, n := range fusedLengths(famBucketSigns, rows) {
				keys := make([]uint64, n)
				for j := range keys {
					if j > 0 && rng.Intn(4) == 0 {
						keys[j] = keys[j-1] // adjacent duplicate: scalar memo path
					} else {
						keys[j] = rng.Uint64()
					}
				}
				checkBuckets(flat, rows, 6*1024, keys)
			}

			const tsize = 257
			table := make([]int64, rows*tsize)
			cells := make([]int64, rows*2*tsize)
			for i := range table {
				table[i] = rng.Int63() - rng.Int63()
			}
			for i := range cells {
				cells[i] = rng.Int63() >> 1 // nonnegative mass < 2^62
			}
			for _, n := range fusedLengths(famGather, rows) {
				checkGathers(table, cells, tsize, rows, n)
			}

			if rows != 1 && rows != 7 {
				continue
			}
			for _, r := range []uint64{1, 2, 3, 6 * 1024, 1 << 20, 1<<32 - 1} {
				for _, keys := range kernelKeyCases(rng) {
					checkBuckets(flat, rows, r, keys)
				}
			}
			// Each row's first two counters are the int64 extremes:
			// negating MinInt64 must wrap the same way on both paths.
			for i := 0; i < rows; i++ {
				table[i*tsize], table[i*tsize+1] = math.MaxInt64, math.MinInt64
			}
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 65, 257, 511, 512, 513, 514, 515, 700} {
				checkGathers(table, cells, tsize, rows, n)
			}
		}
	}
}

// TestKernelDispatchRegistry pins the dispatch plumbing: the scalar
// table always exists, the active table is registered, and SetKernel
// round-trips between every registered table and rejects unknowns.
func TestKernelDispatchRegistry(t *testing.T) {
	names := AvailableKernels()
	if len(names) == 0 || names[0] != "scalar" && !contains(names, "scalar") {
		t.Fatalf("AvailableKernels() = %v, want scalar present", names)
	}
	if !contains(names, KernelName()) {
		t.Fatalf("active kernel %q not in %v", KernelName(), names)
	}
	prev := KernelName()
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range names {
		if err := SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		if KernelName() != name {
			t.Fatalf("KernelName() = %q after SetKernel(%q)", KernelName(), name)
		}
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel name")
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestKernelPublicAPIAcrossKernels runs the public batch evaluators
// under every registered kernel against the per-key scalar accessors —
// the k=8 generic path included, which must be untouched by dispatch.
func TestKernelPublicAPIAcrossKernels(t *testing.T) {
	prev := KernelName()
	defer SetKernel(prev)
	for _, name := range AvailableKernels() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		// 515 keys: past the vector cutover, with a sub-4 tail.
		keys := make([]uint64, 515)
		for j := range keys {
			keys[j] = rng.Uint64()
		}
		for _, k := range []int{1, 2, 4, 8} {
			h := NewKWise(rng, k)
			out := make([]uint64, len(keys))
			h.FieldBatch(keys, out)
			for j, x := range keys {
				if want := h.Field(x); out[j] != want {
					t.Fatalf("kernel %s k=%d FieldBatch[%d]: got %d, want %d", name, k, j, out[j], want)
				}
			}
			h.RangeBatch(keys, 1<<40, out)
			for j, x := range keys {
				if want := h.Range(x, 1<<40); out[j] != want {
					t.Fatalf("kernel %s k=%d RangeBatch[%d]: got %d, want %d", name, k, j, out[j], want)
				}
			}
		}
		b := NewBuckets(rng, 7, 6*1024)
		cols := make([]uint32, 7*len(keys))
		signs := make([]int8, 7*len(keys))
		b.BucketSignsBatch(keys, cols, signs)
		for i := 0; i < 7; i++ {
			for j, x := range keys {
				wc, ws := b.BucketSign(i, x)
				if uint64(cols[i*len(keys)+j]) != wc || int64(signs[i*len(keys)+j]) != ws {
					t.Fatalf("kernel %s BucketSignsBatch row %d key %d mismatch", name, i, j)
				}
			}
		}
	}
}

// TestMulAddLazyHalvesOracle: the 32-bit-halves decomposition the
// vector kernels implement must agree with the word-product lazy step
// on every residue, across the full lazy input range.
func TestMulAddLazyHalvesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const p = nt.MersennePrime61
	check := func(a, x, c uint64) {
		want := nt.ReduceLazyMersenne61(nt.MulAddLazyMersenne61(a, x, c))
		got := nt.ReduceLazyMersenne61(nt.MulAddLazyMersenne61Halves(a, x, c))
		if got != want {
			t.Fatalf("halves(a=%#x, x=%#x, c=%#x) = %d, want %d", a, x, c, got, want)
		}
	}
	edges := []uint64{0, 1, p - 1, p, p + 1, 1<<61 + 7, 1<<62 - 1}
	for _, a := range edges {
		for _, x := range edges {
			if x >= 1<<61+7 {
				continue // x contract: < 2^61 + 7
			}
			check(a, x, 0)
			check(a, x, p-1)
		}
	}
	for i := 0; i < 200000; i++ {
		a := rng.Uint64() & (1<<62 - 1)
		x := rng.Uint64() % (1<<61 + 7)
		c := rng.Uint64() % p
		check(a, x, c)
	}
}
