package hash

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/nt"
	"repro/internal/order"
)

// Kernel layer — the dispatchable inner loops behind every batch
// evaluator. The columnar pipeline reduced each hot path to a handful
// of straight-line sweeps (a Horner chain per row, a bucket+sign
// extraction, a row gather, a median column); this file names those
// sweeps as kernels and routes them through a table chosen ONCE at
// package init:
//
//   - on amd64 with AVX2 (and without the purego build tag) the table
//     points at hand-written 4-lane assembly (kernels_amd64.s) that
//     computes the same Mersenne-61 arithmetic via the VPMULUDQ
//     32-bit-halves decomposition (nt.MulAddLazyMersenne61Halves is
//     the scalar oracle of that math);
//   - everywhere else the table points at the scalar loops below,
//     which are the pre-kernel code moved verbatim.
//
// Every kernel is bit-identical across tables: lazy Mersenne
// representatives may differ mid-chain, but each chain ends in the
// same canonical reduction, and canonical values are unique per
// residue. The differential and fuzz tests in kernel_test.go assert
// exactly that, per kernel and per structure.
//
// The kernel layer lives in package hash because every consumer
// (sketch, csss, the engine) already imports hash for the batch
// evaluators the kernels back; the gather and median kernels are
// exported directly (GatherSignRows, GatherSignDiffRows,
// MedianOf7Columns) for the table sweeps in internal/sketch and
// internal/csss.

// kernelTable bundles the batch-evaluator inner loops the public batch
// methods dispatch through.
type kernelTable struct {
	name string
	// vector marks tables whose kernels route long columns to vector
	// assembly; with the per-family length cutovers it decides how a
	// dispatch is counted (see dispatch_stats.go).
	vector bool
	// bucketSignsRows fills every Count-Sketch row's bucket and sign
	// columns for a whole key column (row width r): flat holds every
	// row's 4 coefficients contiguously (Buckets.flat layout), and the
	// row loop runs INSIDE the kernel — one vector power-up per batch
	// instead of one per row, which is what moves the effective vector
	// cutover from cut keys per row to cut/rows. Outputs are row-major:
	// row i fills cols[i*n:(i+1)*n] and signs[i*n:(i+1)*n].
	bucketSignsRows func(flat []uint64, rows int, r uint64, keys []uint64, cols []uint32, signs []int8)
	// levelMaskRows fills masks[i] with the OR of LevelBit over row i's
	// pairwise field values of every key, for all rows in one call:
	// flat holds each row's 2 coefficients contiguously
	// (PairwiseRows.flat layout). No field column is written.
	levelMaskRows func(flat []uint64, rows int, keys []uint64, masks []uint64)
	// fieldK2 / fieldK4 evaluate a degree-1 / degree-3 polynomial over
	// F_{2^61-1} at every key, writing canonical field values.
	fieldK2 func(c0, c1 uint64, keys []uint64, out []uint64)
	fieldK4 func(c0, c1, c2, c3 uint64, keys []uint64, out []uint64)
	// rangeK2 is fieldK2 fused with the Lemire fast-range reduction
	// onto [0, r) — r may be universe-sized (up to 2^64), so the
	// reduction is a full 64x64 high multiply.
	rangeK2 func(c0, c1, r uint64, keys []uint64, out []uint64)
	// gatherSignRows is the Count-Sketch gather, all rows of a flat
	// rows x stride table in one call: out[i*n+j] = signs[i*n+j] *
	// table[i*stride + idx[i*n+j]], n = len(out)/rows.
	gatherSignRows func(table []int64, stride, rows int, idx []uint32, signs []int8, out []int64)
	// gatherSignDiffRows is gatherSignRows over two-sided cells
	// ([2]int64 pairs, as CSSS tables hold): out[i*n+j] = signs[i*n+j]
	// * (cells[i*stride + 2*idx] - cells[i*stride + 2*idx + 1]),
	// stride in int64 units (2 * columns per row).
	gatherSignDiffRows func(cells []int64, stride, rows int, idx []uint32, signs []int8, out []int64)
	// medianOf7Cols fills out[j] with the median of the j-th column of
	// a 7 x len(out) row-major estimate matrix.
	medianOf7Cols func(est []float64, out []float64)
}

var scalarTable = kernelTable{
	name:               "scalar",
	bucketSignsRows:    bucketSignsRowsScalar,
	levelMaskRows:      levelMaskRowsScalar,
	fieldK2:            fieldK2Scalar,
	fieldK4:            fieldK4Scalar,
	rangeK2:            rangeK2Scalar,
	gatherSignRows:     gatherSignRowsScalar,
	gatherSignDiffRows: gatherSignDiffRowsScalar,
	medianOf7Cols:      medianOf7ColsScalar,
}

// --- vector cutovers -------------------------------------------------
//
// The vector entry points carry a per-call fixed cost (vector-unit
// power-up after VZEROUPPER — measured ~1.5µs and flat across n=16..64
// on the reference Xeon) that only amortizes over enough keys, so
// vector kernel tables route small calls to the scalar twins. The bar
// is a fixed PER-FAMILY value: each family's scalar-vs-vector
// crossover on the reference host, so dispatch is a function of the
// call's size alone and every process routes the same work the same
// way. At a crossover both bodies cost the same by definition, so a
// bar near it loses little on another host. Under -tags purego and on
// CPUs without vector kernels the values are inert (every call is
// scalar).
//
// Units are KEYS PER KERNEL CALL: a single-column dispatch compares
// its column length n, a fused all-rows dispatch compares rows*n —
// fusing is what drops the effective per-row bar to cut/rows.

// kernelFamily indexes the per-family cutovers and dispatch counters.
type kernelFamily int

const (
	famBucketSigns kernelFamily = iota
	famField
	famRange
	famGather
	famMedian
	famCount
)

// familyNames are the stable external names (KernelCutovers map
// keys, obs label values).
var familyNames = [famCount]string{"bucket_signs", "field", "range", "gather", "median"}

// cutoverValues holds the per-family key-count bars, read on every
// dispatch. The values are the modal crossovers of an init-time
// microprobe over 24 process starts on a 2-vCPU AVX2 VM (the probe
// picked them in 15 starts; each family's own value in 19 to 24).
// In-package tests that need another bar assign it directly, under
// SetKernel's non-concurrent contract.
var cutoverValues = [famCount]int{
	famBucketSigns: 128,
	famField:       256,
	famRange:       512,
	famGather:      32,
	famMedian:      32,
}

// KernelCutovers reports the per-family vector cutovers in keys per
// kernel call (fused all-rows calls compare rows*n against the bar).
// On builds without vector kernels the values are inert.
func KernelCutovers() map[string]int {
	m := make(map[string]int, famCount)
	for f, name := range familyNames {
		m[name] = cutoverValues[f]
	}
	return m
}

// KernelCutoverSource reports how the cutovers were chosen: always
// "default", the fixed table above.
func KernelCutoverSource() string { return "default" }

// tables registers every kernel table the build supports; the amd64
// init adds "avx2" when the CPU does.
var tables = map[string]*kernelTable{"scalar": &scalarTable}

// active is the table every batch evaluator routes through, chosen
// once at init. SetKernel (tests, benchmarks) is the only mutator and
// is not synchronized: switch kernels only while no sketch is in use.
var active = &scalarTable

// KernelName reports the kernel table batch evaluators currently use
// ("avx2" on a supporting CPU, "scalar" otherwise or under purego).
func KernelName() string { return active.name }

// AvailableKernels lists the kernel tables this build can dispatch to,
// sorted by name.
func AvailableKernels() []string {
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetKernel switches the active kernel table — a test and benchmark
// hook for forcing the scalar path on hardware that would dispatch to
// vector kernels. Not synchronized; do not call concurrently with
// sketch use.
func SetKernel(name string) error {
	t, ok := tables[name]
	if !ok {
		return fmt.Errorf("hash: unknown kernel %q (available: %v)", name, AvailableKernels())
	}
	active = t
	return nil
}

// GatherSignRows is the row gather of the Count-Sketch batched query
// sweep over a flat row-major table (row i at
// table[i*stride : i*stride+stride]): for every row i and key j it
// fills
//
//	out[i*n+j] = int64(signs[i*n+j]) * table[i*stride + idx[i*n+j]]
//
// with n = len(out)/rows — one kernel call (one vector power-up) for
// the whole gather matrix instead of one per row. idx/signs/out are
// row-major with rows*n entries; signs entries must be ±1 and idx
// entries must be valid row offsets (< stride — the vector path
// gathers without bounds checks).
func GatherSignRows(table []int64, stride, rows int, idx []uint32, signs []int8, out []int64) {
	if len(out) == 0 {
		return
	}
	if rows < 1 || len(out)%rows != 0 {
		panic(fmt.Sprintf("hash: GatherSignRows output of %d entries not a multiple of %d rows", len(out), rows))
	}
	if len(idx) < len(out) || len(signs) < len(out) {
		panic(fmt.Sprintf("hash: GatherSignRows columns hold %d/%d entries, need %d", len(idx), len(signs), len(out)))
	}
	if len(table) < rows*stride {
		panic(fmt.Sprintf("hash: GatherSignRows table holds %d entries, need %d", len(table), rows*stride))
	}
	gatherDispatch.count(len(out), 1)
	active.gatherSignRows(table, stride, rows, idx, signs, out)
}

// GatherSignDiffRows is GatherSignRows over two-sided cells — the CSSS
// table layout, where each bucket is a [2]int64 (positive mass,
// negative mass) pair viewed as a flat int64 array of stride ints per
// row (stride = 2 * columns): for every row i and key j it fills
//
//	out[i*n+j] = int64(signs[i*n+j]) *
//	             (cells[i*stride + 2*idx[i*n+j]] - cells[i*stride + 2*idx[i*n+j] + 1])
//
// The caller converts the signed integer differences to floats; both
// cell sides are nonnegative masses < 2^63, so the difference never
// overflows and the sign application is exact.
func GatherSignDiffRows(cells []int64, stride, rows int, idx []uint32, signs []int8, out []int64) {
	if len(out) == 0 {
		return
	}
	if rows < 1 || len(out)%rows != 0 {
		panic(fmt.Sprintf("hash: GatherSignDiffRows output of %d entries not a multiple of %d rows", len(out), rows))
	}
	if len(idx) < len(out) || len(signs) < len(out) {
		panic(fmt.Sprintf("hash: GatherSignDiffRows columns hold %d/%d entries, need %d", len(idx), len(signs), len(out)))
	}
	if len(cells) < rows*stride {
		panic(fmt.Sprintf("hash: GatherSignDiffRows cells hold %d entries, need %d", len(cells), rows*stride))
	}
	gatherDispatch.count(len(out), 1)
	active.gatherSignDiffRows(cells, stride, rows, idx, signs, out)
}

// MedianOf7Columns fills out[j] with the median of column j of the
// 7 x len(out) row-major estimate matrix est (row r at
// est[r*len(out):(r+1)*len(out)]) — the selection stage of a
// seven-row sketch's batched query, bit-identical to running
// order.MedianOf7 per column on every input free of NaNs and signed
// zeros (the estimate sweeps produce neither).
func MedianOf7Columns(est []float64, out []float64) {
	if len(out) == 0 {
		return // before stats: an empty sweep is not a dispatch
	}
	if len(est) < 7*len(out) {
		panic(fmt.Sprintf("hash: MedianOf7Columns matrix holds %d entries, need %d", len(est), 7*len(out)))
	}
	medianDispatch.count(len(out), 1)
	active.medianOf7Cols(est, out)
}

// --- scalar kernels -------------------------------------------------
//
// These loops are the pre-kernel batch evaluator bodies, moved here
// verbatim: they are both the portable fallback and the oracle the
// vector kernels are differentially tested against.

func bucketSignsRowScalar(c0, c1, c2, c3, r uint64, keys []uint64, rowCols []uint32, rowSigns []int8) {
	for j, x := range keys {
		// Streams are bursty: an index often repeats back-to-back
		// (the same flow, the same sensor). The polynomial is a pure
		// function of the key, so an adjacent duplicate reuses the
		// previous lane — the batched form of the scalar path's
		// last-key memo.
		if j > 0 && x == keys[j-1] {
			rowCols[j] = rowCols[j-1]
			rowSigns[j] = rowSigns[j-1]
			continue
		}
		xr := x % nt.MersennePrime61
		acc := nt.MulAddLazyMersenne61(c3, xr, c2)
		acc = nt.MulAddLazyMersenne61(acc, xr, c1)
		acc = nt.MulAddLazyMersenne61(acc, xr, c0)
		v := nt.ReduceLazyMersenne61(acc)
		hi, _ := bits.Mul64((v>>1)<<4, r)
		rowCols[j] = uint32(hi)
		rowSigns[j] = 1 - int8(v&1)<<1
	}
}

func fieldK2Scalar(c0, c1 uint64, keys []uint64, out []uint64) {
	for j, x := range keys {
		out[j] = nt.MulAddModMersenne61(c1, x%nt.MersennePrime61, c0)
	}
}

func fieldK4Scalar(c0, c1, c2, c3 uint64, keys []uint64, out []uint64) {
	for j, x := range keys {
		xr := x % nt.MersennePrime61
		acc := nt.MulAddLazyMersenne61(c3, xr, c2)
		acc = nt.MulAddLazyMersenne61(acc, xr, c1)
		acc = nt.MulAddLazyMersenne61(acc, xr, c0)
		out[j] = nt.ReduceLazyMersenne61(acc)
	}
}

func rangeK2Scalar(c0, c1, r uint64, keys []uint64, out []uint64) {
	for j, x := range keys {
		if j > 0 && x == keys[j-1] { // adjacent duplicate: reuse the lane
			out[j] = out[j-1]
			continue
		}
		v := nt.MulAddModMersenne61(c1, x%nt.MersennePrime61, c0)
		hi, _ := bits.Mul64(v<<3, r)
		out[j] = hi
	}
}

func gatherSignInt64Scalar(row []int64, idx []uint32, signs []int8, out []int64) {
	for j := range out {
		out[j] = int64(signs[j]) * row[idx[j]]
	}
}

// --- fused scalar kernels -------------------------------------------
//
// The scalar fused forms are thin row loops over the single-row scalar
// kernels: with no per-call vector power-up to amortize there is
// nothing to fuse, but they define the bit-exact contract the fused
// assembly is differentially tested against, and they are what a
// vector table's fused wrapper falls back to below the cutover.

func bucketSignsRowsScalar(flat []uint64, rows int, r uint64, keys []uint64, cols []uint32, signs []int8) {
	n := len(keys)
	for i := 0; i < rows; i++ {
		c := flat[4*i : 4*i+4 : 4*i+4]
		bucketSignsRowScalar(c[0], c[1], c[2], c[3], r, keys, cols[i*n:i*n+n:i*n+n], signs[i*n:i*n+n:i*n+n])
	}
}

func levelMaskRowsScalar(flat []uint64, rows int, keys []uint64, masks []uint64) {
	for i := range masks[:rows] {
		masks[i] = levelMaskRowScalar(flat[2*i], flat[2*i+1], keys)
	}
}

// levelMaskRowScalar ORs the level bits of one pairwise row over keys —
// the scalar kernel's row body and the vector kernel's tail.
func levelMaskRowScalar(c0, c1 uint64, keys []uint64) uint64 {
	var m uint64
	for _, x := range keys {
		m |= LevelBit(nt.MulAddModMersenne61(c1, x%nt.MersennePrime61, c0))
	}
	return m
}

func gatherSignRowsScalar(table []int64, stride, rows int, idx []uint32, signs []int8, out []int64) {
	n := len(out) / rows
	for i := 0; i < rows; i++ {
		gatherSignInt64Scalar(table[i*stride:i*stride+stride:i*stride+stride],
			idx[i*n:i*n+n:i*n+n], signs[i*n:i*n+n:i*n+n], out[i*n:i*n+n:i*n+n])
	}
}

func gatherSignDiffRowsScalar(cells []int64, stride, rows int, idx []uint32, signs []int8, out []int64) {
	n := len(out) / rows
	for i := 0; i < rows; i++ {
		base := cells[i*stride : i*stride+stride : i*stride+stride]
		ri := idx[i*n : i*n+n : i*n+n]
		rs := signs[i*n : i*n+n : i*n+n]
		ro := out[i*n : i*n+n : i*n+n]
		for j := range ro {
			c := 2 * int(ri[j])
			ro[j] = int64(rs[j]) * (base[c] - base[c+1])
		}
	}
}

func medianOf7ColsScalar(est []float64, out []float64) {
	n := len(out)
	for j := 0; j < n; j++ {
		out[j] = medianOf7At(est, n, j)
	}
}

// medianOf7At selects the median of column j of a 7 x n row-major
// matrix — shared by the scalar kernel and the vector kernel's tail.
func medianOf7At(est []float64, n, j int) float64 {
	return order.MedianOf7(est[j], est[n+j], est[2*n+j], est[3*n+j], est[4*n+j], est[5*n+j], est[6*n+j])
}
