package hash

import (
	"encoding/binary"
	"testing"

	"repro/internal/nt"
)

// maxFamilyCutover returns the largest per-family cutover currently in
// effect — fuzz columns tile past it so every kernel body runs its
// vector path regardless of what calibration chose.
func maxFamilyCutover() int {
	max := 1
	for _, v := range cutoverValues {
		if v > max {
			max = v
		}
	}
	return max
}

// FuzzKernelDifferential drives arbitrary byte strings — decoded into
// a key column, polynomial coefficients, a range width and a row count
// — through every registered vector kernel against its scalar oracle,
// the fused forms at one row and at the fuzzer's row count. The fuzzer
// owns the lengths and the row count (1..8), so unaligned and odd
// tails (the 4-lane body plus sub-4 scalar remainder),
// adjacent-duplicate columns, and every rows/length combination
// straddling the calibrated cutovers fall out of the corpus rather
// than hand-picked cases. On builds with no vector
// kernel (purego, non-amd64, no AVX2) the loop is empty and the fuzz
// target trivially passes.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	seed := make([]byte, 0, 64)
	for _, v := range []uint64{0, 1, nt.MersennePrime61, 1<<61 + 1, ^uint64(0), 42, 42} {
		seed = binary.LittleEndian.AppendUint64(seed, v)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		// First 40 bytes (when present) pick c0..c3 and r; the rest is
		// the key column, including a partial trailing word.
		var params [5]uint64
		for i := range params {
			if len(data) >= 8 {
				params[i] = binary.LittleEndian.Uint64(data[:8])
				data = data[8:]
			}
		}
		c0 := params[0] % nt.MersennePrime61
		c1 := params[1] % nt.MersennePrime61
		c2 := params[2] % nt.MersennePrime61
		c3 := params[3] % nt.MersennePrime61
		r := params[4]
		if r == 0 {
			r = 1
		}
		// The fuzzer owns the fused row count: 1..8 covers every sketch
		// depth in the library (5-row Count-Sketch through 7-row plus
		// headroom).
		rows := int(params[4]>>33)%8 + 1
		short := make([]uint64, 0, len(data)/8+1)
		for len(data) > 0 {
			var w [8]byte
			n := copy(w[:], data)
			data = data[n:]
			short = append(short, binary.LittleEndian.Uint64(w[:]))
		}
		// Fuzz inputs are short, and short columns route to the scalar
		// twins by the calibrated cutovers — so also tile the column
		// past the largest family cutover to drive the assembly bodies.
		// The tiled length varies with the input, covering every sub-4
		// tail, and rows*n lands on both sides of the fused bars.
		keys := short
		if cut := maxFamilyCutover(); len(short) > 0 && len(short) < cut {
			keys = make([]uint64, cut+len(short))
			for i := range keys {
				keys[i] = short[i%len(short)]
			}
		}
		n := len(keys)
		wantCols, gotCols := make([]uint32, rows*n), make([]uint32, rows*n)
		wantSigns, gotSigns := make([]int8, rows*n), make([]int8, rows*n)
		want, got := make([]uint64, n), make([]uint64, n)
		// Fused coefficient bundles: row 0 carries c0..c3 exactly, later
		// rows perturb them so rows differ.
		flat4 := make([]uint64, 4*rows)
		for i := 0; i < rows; i++ {
			d := uint64(i) * 0x9E3779B97F4A7C15 % nt.MersennePrime61
			flat4[4*i] = (c0 + d) % nt.MersennePrime61
			flat4[4*i+1] = (c1 + d) % nt.MersennePrime61
			flat4[4*i+2] = (c2 + d) % nt.MersennePrime61
			flat4[4*i+3] = (c3 + d) % nt.MersennePrime61
		}
		for _, vt := range vectorTables() {
			// Row widths live in [1, 2^32-1]: BucketSignsBatch rejects
			// wider tables (the bucket columns are uint32), and the
			// vector mulhi assumes r < 2^32.
			rw := r%(1<<32-1) + 1
			scalarTable.bucketSignsRows(flat4[:4], 1, rw, keys, wantCols[:n], wantSigns[:n])
			vt.bucketSignsRows(flat4[:4], 1, rw, keys, gotCols[:n], gotSigns[:n])
			for j := range keys {
				if gotCols[j] != wantCols[j] || gotSigns[j] != wantSigns[j] {
					t.Fatalf("%s bucketSignsRows rows=1 key[%d]=%#x: got (%d,%d), want (%d,%d)",
						vt.name, j, keys[j], gotCols[j], gotSigns[j], wantCols[j], wantSigns[j])
				}
			}
			scalarTable.fieldK2(c0, c1, keys, want)
			vt.fieldK2(c0, c1, keys, got)
			for j := range keys {
				if got[j] != want[j] {
					t.Fatalf("%s fieldK2 key[%d]=%#x: got %d, want %d", vt.name, j, keys[j], got[j], want[j])
				}
			}
			scalarTable.fieldK4(c0, c1, c2, c3, keys, want)
			vt.fieldK4(c0, c1, c2, c3, keys, got)
			for j := range keys {
				if got[j] != want[j] {
					t.Fatalf("%s fieldK4 key[%d]=%#x: got %d, want %d", vt.name, j, keys[j], got[j], want[j])
				}
			}
			scalarTable.rangeK2(c0, c1, r, keys, want)
			vt.rangeK2(c0, c1, r, keys, got)
			for j := range keys {
				if got[j] != want[j] {
					t.Fatalf("%s rangeK2 r=%d key[%d]=%#x: got %d, want %d", vt.name, r, j, keys[j], got[j], want[j])
				}
			}

			// Fused forms against their scalar twins, all rows at once.
			scalarTable.bucketSignsRows(flat4, rows, rw, keys, wantCols, wantSigns)
			vt.bucketSignsRows(flat4, rows, rw, keys, gotCols, gotSigns)
			for j := range wantCols {
				if gotCols[j] != wantCols[j] || gotSigns[j] != wantSigns[j] {
					t.Fatalf("%s bucketSignsRows rows=%d n=%d out[%d]: got (%d,%d), want (%d,%d)",
						vt.name, rows, n, j, gotCols[j], gotSigns[j], wantCols[j], wantSigns[j])
				}
			}

			if n == 0 {
				continue
			}
			// Fused gathers: a rows x tsize table (tsize fuzzer-derived,
			// capped), indices reduced from the key column, signs from the
			// bucket-sign sweep above (always ±1). Diff cells hold
			// nonnegative masses < 2^62 per side, the CSSS invariant.
			tsize := int(rw%4096) + 1
			idx := make([]uint32, rows*n)
			for j := range idx {
				idx[j] = uint32(keys[j%n] % uint64(tsize))
			}
			table := make([]int64, rows*tsize)
			cells := make([]int64, rows*2*tsize)
			for j := range table {
				table[j] = int64(keys[j%n]) - int64(keys[(j+1)%n])
			}
			for j := range cells {
				cells[j] = int64(keys[j%n] & (1<<62 - 1))
			}
			wantI, gotI := make([]int64, rows*n), make([]int64, rows*n)
			scalarTable.gatherSignRows(table, tsize, rows, idx, wantSigns, wantI)
			vt.gatherSignRows(table, tsize, rows, idx, wantSigns, gotI)
			for j := range wantI {
				if gotI[j] != wantI[j] {
					t.Fatalf("%s gatherSignRows rows=%d n=%d out[%d]: got %d, want %d", vt.name, rows, n, j, gotI[j], wantI[j])
				}
			}
			scalarTable.gatherSignDiffRows(cells, 2*tsize, rows, idx, wantSigns, wantI)
			vt.gatherSignDiffRows(cells, 2*tsize, rows, idx, wantSigns, gotI)
			for j := range wantI {
				if gotI[j] != wantI[j] {
					t.Fatalf("%s gatherSignDiffRows rows=%d n=%d out[%d]: got %d, want %d", vt.name, rows, n, j, gotI[j], wantI[j])
				}
			}
		}
	})
}
