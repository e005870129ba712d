//go:build amd64 && !purego

package hash

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
// them.

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

func init() {
	if !hasAVX2 {
		return
	}
	tables["avx2"] = &avx2Table
	active = &avx2Table
}
