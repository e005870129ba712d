//go:build amd64 && !purego

package hash

import "time"

// AVX2 kernel dispatch. Feature detection is hand-rolled CPUID (this
// module has no dependencies): AVX2 requires the CPU flag itself plus
// OSXSAVE/AVX and an OS that saves YMM state across context switches
// (XGETBV). When any probe fails the package keeps the scalar table —
// the same code the purego build tag and non-amd64 targets compile.
//
// Each vector kernel processes four keys per iteration and hands the
// sub-4 remainder to its scalar twin, so odd batch lengths exercise
// both paths; the kernels' math is documented at
// nt.MulAddLazyMersenne61Halves (Horner steps), Reduce (fast range)
// and order.MedianOf7 (the median network).
//
// Hosts with AVX2 register the "avx2" table and make it the default:
// its FUSED all-rows entry points loop rows inside one assembly call —
// one vector power-up per batch — and compare the batch's TOTAL key
// volume against the family cutover.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS preserves XMM+YMM state.
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

//go:noescape
func bucketSignsRowsAVX2(flat *uint64, rows int, r uint64, keys []uint64, cols *uint32, signs *int8, stride int)

//go:noescape
func fieldK2AVX2(c0, c1 uint64, keys []uint64, out []uint64)

//go:noescape
func fieldK4AVX2(c0, c1, c2, c3 uint64, keys []uint64, out []uint64)

//go:noescape
func rangeK2AVX2(c0, c1, r uint64, keys []uint64, out []uint64)

//go:noescape
func gatherSignRowsAVX2(table *int64, tstride, rows int, idx *uint32, signs *int8, out *int64, m, rstride int)

//go:noescape
func gatherSignDiffRowsAVX2(cells *int64, tstride, rows int, idx *uint32, signs *int8, out *int64, m, rstride int)

//go:noescape
func medianOf7ColsAVX2(est, out *float64, stride, count int)

// --- single-column vector wrappers ----------------------------------
//
// Each wrapper routes below-cutover calls to the scalar twin, calls
// the assembly on the 4-aligned prefix and hands the sub-4 tail back
// to scalar code. The field, range and median kernels dispatch through
// them; calibration probes the raw assembly against the scalar bodies
// directly.

func fieldK2Vec(c0, c1 uint64, keys []uint64, out []uint64) {
	if len(keys) < cutoverValues[famField] {
		fieldK2Scalar(c0, c1, keys, out)
		return
	}
	m := len(keys) &^ 3
	if m > 0 {
		fieldK2AVX2(c0, c1, keys[:m], out[:m])
	}
	if m < len(keys) {
		fieldK2Scalar(c0, c1, keys[m:], out[m:])
	}
}

func fieldK4Vec(c0, c1, c2, c3 uint64, keys []uint64, out []uint64) {
	if len(keys) < cutoverValues[famField] {
		fieldK4Scalar(c0, c1, c2, c3, keys, out)
		return
	}
	m := len(keys) &^ 3
	if m > 0 {
		fieldK4AVX2(c0, c1, c2, c3, keys[:m], out[:m])
	}
	if m < len(keys) {
		fieldK4Scalar(c0, c1, c2, c3, keys[m:], out[m:])
	}
}

func rangeK2Vec(c0, c1, r uint64, keys []uint64, out []uint64) {
	if len(keys) < cutoverValues[famRange] {
		rangeK2Scalar(c0, c1, r, keys, out)
		return
	}
	m := len(keys) &^ 3
	if m > 0 {
		rangeK2AVX2(c0, c1, r, keys[:m], out[:m])
	}
	if m < len(keys) {
		rangeK2Scalar(c0, c1, r, keys[m:], out[m:])
	}
}

func medianOf7ColsVec(est []float64, out []float64) {
	n := len(out)
	if n < cutoverValues[famMedian] {
		medianOf7ColsScalar(est, out)
		return
	}
	m := n &^ 3
	if m > 0 {
		medianOf7ColsAVX2(&est[0], &out[0], n, m)
	}
	for j := m; j < n; j++ {
		out[j] = medianOf7At(est, n, j)
	}
}

// --- fused vector wrappers ------------------------------------------
//
// The fused wrappers compare the batch's TOTAL key volume (rows * n)
// against the family cutover — the whole point of fusion: one power-up
// amortizes over every row, so the effective per-row bar is cut/rows.
// The assembly runs the row loop over the 4-aligned column prefix
// (keys[:m], stride = full column width n); Go fills each row's sub-4
// tail with the scalar kernel.

func bucketSignsRowsFused(flat []uint64, rows int, r uint64, keys []uint64, cols []uint32, signs []int8) {
	n := len(keys)
	m := n &^ 3
	if rows*n < cutoverValues[famBucketSigns] || m == 0 {
		bucketSignsRowsScalar(flat, rows, r, keys, cols, signs)
		return
	}
	bucketSignsRowsAVX2(&flat[0], rows, r, keys[:m], &cols[0], &signs[0], n)
	if m < n {
		for i := 0; i < rows; i++ {
			c := flat[4*i : 4*i+4 : 4*i+4]
			bucketSignsRowScalar(c[0], c[1], c[2], c[3], r, keys[m:], cols[i*n+m:i*n+n:i*n+n], signs[i*n+m:i*n+n:i*n+n])
		}
	}
}

func gatherSignRowsFused(table []int64, stride, rows int, idx []uint32, signs []int8, out []int64) {
	n := len(out) / rows
	m := n &^ 3
	if len(out) < cutoverValues[famGather] || m == 0 {
		gatherSignRowsScalar(table, stride, rows, idx, signs, out)
		return
	}
	gatherSignRowsAVX2(&table[0], stride, rows, &idx[0], &signs[0], &out[0], m, n)
	if m < n {
		for i := 0; i < rows; i++ {
			row := table[i*stride : i*stride+stride : i*stride+stride]
			gatherSignInt64Scalar(row, idx[i*n+m:i*n+n:i*n+n], signs[i*n+m:i*n+n:i*n+n], out[i*n+m:i*n+n:i*n+n])
		}
	}
}

func gatherSignDiffRowsFused(cells []int64, stride, rows int, idx []uint32, signs []int8, out []int64) {
	n := len(out) / rows
	m := n &^ 3
	if len(out) < cutoverValues[famGather] || m == 0 {
		gatherSignDiffRowsScalar(cells, stride, rows, idx, signs, out)
		return
	}
	gatherSignDiffRowsAVX2(&cells[0], stride, rows, &idx[0], &signs[0], &out[0], m, n)
	if m < n {
		for i := 0; i < rows; i++ {
			base := cells[i*stride : i*stride+stride : i*stride+stride]
			for j := m; j < n; j++ {
				c := 2 * int(idx[i*n+j])
				out[i*n+j] = int64(signs[i*n+j]) * (base[c] - base[c+1])
			}
		}
	}
}

var avx2Table = kernelTable{
	name:               "avx2",
	vector:             true,
	bucketSignsRows:    bucketSignsRowsFused,
	fieldK2:            fieldK2Vec,
	fieldK4:            fieldK4Vec,
	rangeK2:            rangeK2Vec,
	gatherSignRows:     gatherSignRowsFused,
	gatherSignDiffRows: gatherSignDiffRowsFused,
	medianOf7Cols:      medianOf7ColsVec,
}

// --- cutover calibration --------------------------------------------

// probeSizes are the candidate cutovers, walked from largest down: the
// probe keeps lowering the bar while the vector body still beats the
// scalar body at that size. Multiples of 4 so the assembly runs with
// no tail.
var probeSizes = [...]int{2048, 1024, 512, 256, 128, 64, 32}

// timeKernel times one kernel invocation, min-of-3 to shed scheduler
// noise. The bodies probed run ~1-10µs at the sizes used, so the
// whole calibration stays around a millisecond of init time.
func timeKernel(f func()) time.Duration {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// calibrateCutovers measures the scalar-vs-vector crossover per kernel
// family ON THIS HOST and writes cutoverValues/cutoverSource. It probes
// the raw kernel bodies (never the dispatch wrappers), so no dispatch
// stats are recorded and the current cutovers don't bias the probe.
// The fused families are probed at rows = 1: the same work per key as
// any row count, through the assembly entry that traffic takes.
// A family whose vector body never wins — even at the largest probe —
// settles at maxCutover rather than "never": calls that large amortize
// any plausible power-up.
func calibrateCutovers() {
	const maxN = 2048
	keys := make([]uint64, maxN)
	for i := range keys {
		keys[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	cols := make([]uint32, maxN)
	sgns := make([]int8, maxN)
	out := make([]uint64, maxN)

	const tableN = 1024
	row := make([]int64, tableN)
	for i := range row {
		row[i] = int64(i) - tableN/2
	}
	idx := make([]uint32, maxN)
	gsigns := make([]int8, maxN)
	gout := make([]int64, maxN)
	for i := range idx {
		idx[i] = uint32(i % tableN)
		gsigns[i] = int8(1 - 2*(i&1))
	}
	est := make([]float64, 7*maxN)
	for i := range est {
		est[i] = float64(i % 97)
	}
	med := make([]float64, maxN)

	const p61 = 1<<61 - 1
	const c0, c1 = uint64(0x0123456789ABCDEF) % p61, uint64(0x0FEDCBA987654321) % p61
	const c2, c3 = uint64(0x1122334455667788) % p61, uint64(0x18877665544332211 % p61)
	flat := [4]uint64{c0, c1, c2, c3}
	const width = uint64(1 << 20)

	probe := func(fam kernelFamily, scalar, vector func(n int)) {
		cut := maxCutover
		for _, n := range probeSizes {
			ts := timeKernel(func() { scalar(n) })
			tv := timeKernel(func() { vector(n) })
			if tv > ts {
				break // scalar wins at n: the bar stays above it
			}
			cut = n
		}
		cutoverValues[fam] = cut
	}

	probe(famBucketSigns,
		func(n int) { bucketSignsRowScalar(c0, c1, c2, c3, width, keys[:n], cols[:n], sgns[:n]) },
		func(n int) { bucketSignsRowsAVX2(&flat[0], 1, width, keys[:n], &cols[0], &sgns[0], n) })
	probe(famField,
		func(n int) { fieldK4Scalar(c0, c1, c2, c3, keys[:n], out[:n]) },
		func(n int) { fieldK4AVX2(c0, c1, c2, c3, keys[:n], out[:n]) })
	probe(famRange,
		func(n int) { rangeK2Scalar(c0, c1, width, keys[:n], out[:n]) },
		func(n int) { rangeK2AVX2(c0, c1, width, keys[:n], out[:n]) })
	probe(famGather,
		func(n int) { gatherSignInt64Scalar(row, idx[:n], gsigns[:n], gout[:n]) },
		func(n int) { gatherSignRowsAVX2(&row[0], tableN, 1, &idx[0], &gsigns[0], &gout[0], n, n) })
	probe(famMedian,
		func(n int) { medianOf7ColsScalar(est[:7*n], med[:n]) },
		func(n int) { medianOf7ColsAVX2(&est[0], &med[0], n, n) })

	cutoverSource = "calibrated"
}

func init() {
	if !hasAVX2 {
		return
	}
	tables["avx2"] = &avx2Table
	active = &avx2Table
	calibrateCutovers()
}
