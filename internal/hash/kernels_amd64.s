//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the Mersenne-61 batch evaluators. Four keys per
// iteration; callers guarantee len is a multiple of 4 (Go wrappers
// route the remainder through the scalar kernels).
//
// VZEROUPPER exit-path checklist — re-audited with the fused kernels.
// A missing VZEROUPPER does not corrupt results, but it leaves dirty
// upper YMM state and shifts the ~1.5µs vector power-up cost into the
// caller's SSE code (measured in PR 6), which is exactly the cost the
// fused kernels exist to amortize. Audit rule: every TEXT symbol has
// exactly ONE exit path — the RET after its done: label — and executes
// VZEROUPPER immediately before it. No early RET, no conditional jump
// past the epilogue. Checked per symbol:
//
//	bucketSignsRowsAVX2   single exit (done:)  VZEROUPPER+RET
//	levelMaskRowsAVX2     single exit (done:)  VZEROUPPER+RET
//	fieldK2AVX2           single exit (done:)  VZEROUPPER+RET
//	fieldK4AVX2           single exit (done:)  VZEROUPPER+RET
//	rangeK2AVX2           single exit (done:)  VZEROUPPER+RET
//	gatherSignRowsAVX2    single exit (done:)  VZEROUPPER+RET
//	gatherSignDiffRowsAVX2 single exit (done:) VZEROUPPER+RET
//	medianOf7ColsAVX2     single exit (done:)  VZEROUPPER+RET
//
// When adding a kernel: keep the single-exit shape, add it to this
// list, and re-run the kernel differential + fuzz suites.
//
// The Horner step computes acc*x + c over F_{2^61-1} in lazy form
// through the 32-bit-halves decomposition (VPMULUDQ multiplies the
// low dwords of each qword lane):
//
//	acc*x = aH*xH*2^64 + (aL*xH + aH*xL)*2^32 + aL*xL
//
// With 2^64 ≡ 8 and 2^61 ≡ 1 (mod p) each term folds into < 2^64
// intermediates as long as acc < 2^62 and x < 2^61 + 7, and the
// per-step fold (s>>61) + (s&p) keeps acc < 2^61 + 8. See
// nt.MulAddLazyMersenne61Halves for the scalar oracle of exactly this
// math, including the bounds argument. A final canonical reduction
// makes the chain bit-identical to the scalar path: canonical values
// are unique per residue class.
//
// Fixed register roles inside every kernel:
//	Y0 = xr (lazily reduced key), Y1 = xr >> 32
//	Y2 = Horner accumulator / canonical value V
//	Y3..Y7 = temporaries
//	Y8..Y13 = broadcast coefficients / range constants (per kernel)
//	Y14 = 2^29 - 1, Y15 = p = 2^61 - 1

// HSTEP: one lazy Horner step acc = fold(acc*xr + addend).
// In: Y2 = acc (< 2^62), Y0 = xr, Y1 = xr>>32, addend broadcast in Yc.
// Out: Y2 = acc' (< 2^61 + 8). Clobbers Y3..Y7.
#define HSTEP(Yc) \
	VPMULUDQ Y0, Y2, Y3  \ // t0 = aL*xL
	VPSRLQ   $32, Y2, Y4 \ // aH
	VPMULUDQ Y1, Y2, Y5  \ // t1 = aL*xH
	VPMULUDQ Y0, Y4, Y6  \ // t2 = aH*xL
	VPMULUDQ Y1, Y4, Y4  \ // t3 = aH*xH
	VPADDQ   Y5, Y6, Y5  \ // t12 = t1 + t2 (< 2^63)
	VPSRLQ   $29, Y5, Y6 \ // u = t12 >> 29      (t12*2^32 ≡ u + v<<32)
	VPAND    Y14, Y5, Y5 \ // v = t12 & (2^29-1)
	VPSLLQ   $32, Y5, Y5 \ // v << 32
	VPSLLQ   $3, Y4, Y4  \ // t3 * 8             (2^64 ≡ 8)
	VPAND    Y15, Y3, Y7 \ // t0 & p
	VPSRLQ   $61, Y3, Y3 \ // t0 >> 61
	VPADDQ   Y7, Y3, Y3  \
	VPADDQ   Y5, Y3, Y3  \
	VPADDQ   Y6, Y3, Y3  \
	VPADDQ   Y4, Y3, Y3  \
	VPADDQ   Yc, Y3, Y3  \ // s = folded acc*x + c (< 2^64)
	VPSRLQ   $61, Y3, Y4 \
	VPAND    Y15, Y3, Y3 \
	VPADDQ   Y4, Y3, Y2    // acc' = (s>>61) + (s&p)

// LOADKEYS: load 4 keys at (SI)(DX*8) and reduce lazily into the
// field: xr = (x>>61) + (x&p) < 2^61 + 7 (2^61 ≡ 1 mod p).
// Out: Y0 = xr, Y1 = xr>>32.
#define LOADKEYS \
	VMOVDQU (SI)(DX*8), Y0 \
	VPSRLQ  $61, Y0, Y1    \
	VPAND   Y15, Y0, Y0    \
	VPADDQ  Y1, Y0, Y0     \
	VPSRLQ  $32, Y0, Y1

// CREDUCE: canonicalize the lazy accumulator, bit-identical to
// nt.ReduceLazyMersenne61. After the fold v <= 2^61 = p + 1, and
// (v+1)>>61 is 1 exactly when v >= p, so subtracting mask*p =
// (mask<<61) - mask finishes the reduction without a vector compare.
// In/out: Y2. Clobbers Y3, Y4.
#define CREDUCE \
	VPSRLQ   $61, Y2, Y3 \
	VPAND    Y15, Y2, Y2 \
	VPADDQ   Y3, Y2, Y2  \ // v = (acc>>61) + (acc&p) <= p+1
	VPCMPEQD Y4, Y4, Y4  \ // all ones = -1
	VPSUBQ   Y4, Y2, Y3  \ // v + 1
	VPSRLQ   $61, Y3, Y3 \ // mask = 1 iff v >= p
	VPADDQ   Y3, Y2, Y2  \ // v + mask
	VPSLLQ   $61, Y3, Y3 \
	VPSUBQ   Y3, Y2, Y2    // v + mask - mask*2^61 = v - mask*p

// CONSTANTS: broadcast p and 2^29-1 into Y15/Y14 via AX/X7.
#define CONSTANTS \
	MOVQ         $0x1FFFFFFFFFFFFFFF, AX \
	MOVQ         AX, X7                  \
	VPBROADCASTQ X7, Y15                 \
	MOVQ         $0x1FFFFFFF, AX         \
	MOVQ         AX, X7                  \
	VPBROADCASTQ X7, Y14

// BCAST: broadcast a 64-bit stack argument into a Y register via X7.
#define BCAST(arg, Yd) \
	MOVQ         arg, AX \
	MOVQ         AX, X7  \
	VPBROADCASTQ X7, Yd

// signtab maps a 4-bit low-bit mask to 4 sign bytes: bit k set (field
// value odd) selects -1 (0xFF), clear selects +1 (0x01) — the batched
// form of sign = 1 - (v&1)<<1.
DATA signtab<>+0x00(SB)/4, $0x01010101
DATA signtab<>+0x04(SB)/4, $0x010101FF
DATA signtab<>+0x08(SB)/4, $0x0101FF01
DATA signtab<>+0x0c(SB)/4, $0x0101FFFF
DATA signtab<>+0x10(SB)/4, $0x01FF0101
DATA signtab<>+0x14(SB)/4, $0x01FF01FF
DATA signtab<>+0x18(SB)/4, $0x01FFFF01
DATA signtab<>+0x1c(SB)/4, $0x01FFFFFF
DATA signtab<>+0x20(SB)/4, $0xFF010101
DATA signtab<>+0x24(SB)/4, $0xFF0101FF
DATA signtab<>+0x28(SB)/4, $0xFF01FF01
DATA signtab<>+0x2c(SB)/4, $0xFF01FFFF
DATA signtab<>+0x30(SB)/4, $0xFFFF0101
DATA signtab<>+0x34(SB)/4, $0xFFFF01FF
DATA signtab<>+0x38(SB)/4, $0xFFFFFF01
DATA signtab<>+0x3c(SB)/4, $0xFFFFFFFF
GLOBL signtab<>(SB), RODATA|NOPTR, $64

// func bucketSignsRowsAVX2(flat *uint64, rows int, r uint64, keys []uint64, cols *uint32, signs *int8, stride int)
//
// Every Count-Sketch row over one key column: evaluate the row's
// 4-wise polynomial, split the canonical value into sign (low bit) and
// bucket (remaining 60 bits through the Lemire fast range
// (v>>1)<<4 * r >> 64; r < 2^32 so the high multiply needs only two
// VPMULUDQ). Buckets pack to dwords via an in-lane dword shuffle plus
// a cross-lane qword permute; signs drop to a 4-bit VMOVMSKPD mask
// looked up in signtab. The row loop runs inside the kernel, so a
// whole batch pays ONE vector power-up instead of one per row. flat
// holds every row's 4 coefficients contiguously (c0,c1,c2,c3 per row),
// rebroadcast from memory at rowloop. cols/signs are row-major with
// stride elements per row (stride >= len(keys); the Go wrapper passes
// the full column width and keeps sub-4 tails for the scalar twin).
TEXT ·bucketSignsRowsAVX2(SB), NOSPLIT, $0-72
	BCAST(r+16(FP), Y13)
	MOVQ $0xFFFFFFFFFFFFFFF7, AX // ~8: (v<<3) &^ 8 == (v>>1)<<4
	MOVQ AX, X7
	VPBROADCASTQ X7, Y12
	CONSTANTS
	MOVQ flat+0(FP), BX
	MOVQ rows+8(FP), R10
	MOVQ keys_base+24(FP), SI
	MOVQ keys_len+32(FP), CX
	MOVQ cols+48(FP), DI
	MOVQ signs+56(FP), R8
	MOVQ stride+64(FP), R11
	LEAQ signtab<>(SB), R9

rowloop:
	TESTQ R10, R10
	JLE   done
	VPBROADCASTQ 24(BX), Y8 // c3
	VPBROADCASTQ 16(BX), Y9 // c2
	VPBROADCASTQ 8(BX), Y10 // c1
	VPBROADCASTQ (BX), Y11  // c0
	XORQ DX, DX
	CMPQ DX, CX
	JGE  rownext

keyloop:
	LOADKEYS
	VMOVDQA Y8, Y2
	HSTEP(Y9)
	HSTEP(Y10)
	HSTEP(Y11)
	CREDUCE

	// signs: low bit of V to bit 63, VMOVMSKPD to a 4-bit mask, table
	// lookup writes 4 sign bytes at once.
	VPSLLQ    $63, Y2, Y3
	VMOVMSKPD Y3, AX
	MOVL      (R9)(AX*4), AX
	MOVL      AX, (R8)(DX*1)

	// buckets: w = (v<<3) &^ 8, bucket = mulhi64(w, r) with r < 2^32:
	// mulhi = (wH*r + ((wL*r)>>32)) >> 32.
	VPSLLQ   $3, Y2, Y3
	VPAND    Y12, Y3, Y3
	VPSRLQ   $32, Y3, Y4
	VPMULUDQ Y13, Y3, Y5
	VPMULUDQ Y13, Y4, Y4
	VPSRLQ   $32, Y5, Y5
	VPADDQ   Y5, Y4, Y4
	VPSRLQ   $32, Y4, Y4

	// pack the 4 qword-lane buckets (< 2^32) into 4 dwords.
	VPSHUFD $0x88, Y4, Y4
	VPERMQ  $0x08, Y4, Y4
	VMOVDQU X4, (DI)(DX*4)

	ADDQ $4, DX
	CMPQ DX, CX
	JLT  keyloop

rownext:
	ADDQ $32, BX         // next row's 4 coefficients
	LEAQ (DI)(R11*4), DI // cols += stride dwords
	ADDQ R11, R8         // signs += stride bytes
	DECQ R10
	JMP  rowloop

done:
	VZEROUPPER
	RET

// func levelMaskRowsAVX2(flat *uint64, rows int, keys []uint64, masks *uint64)
//
// Every row's Flajolet-Martin level mask over one key column: evaluate
// the row's pairwise polynomial (fieldK2's chain), turn the canonical
// value v into its level bit w & -w with w = v | 1<<60 (a zero value
// sits at level 60), and OR it into a register accumulator. At the end
// of a row the four lanes OR together into masks[row]; no field column
// is written. The row loop runs inside the kernel, one vector power-up
// for all rows. flat holds every row's 2 coefficients contiguously
// (c0, c1 per row); len(keys) is a multiple of 4 (the Go wrapper ORs
// the sub-4 tail in with the scalar twin).
TEXT ·levelMaskRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ $0x1000000000000000, AX // 1<<60: the zero value's level
	MOVQ AX, X7
	VPBROADCASTQ X7, Y13
	CONSTANTS
	MOVQ flat+0(FP), BX
	MOVQ rows+8(FP), R10
	MOVQ keys_base+16(FP), SI
	MOVQ keys_len+24(FP), CX
	MOVQ masks+40(FP), DI

rowloop:
	TESTQ R10, R10
	JLE   done
	VPBROADCASTQ 8(BX), Y8 // c1
	VPBROADCASTQ (BX), Y9  // c0
	VPXOR Y12, Y12, Y12    // the row's mask, per lane
	XORQ  DX, DX
	CMPQ  DX, CX
	JGE   rowstore

keyloop:
	LOADKEYS
	VMOVDQA Y8, Y2
	HSTEP(Y9)
	CREDUCE
	VPOR    Y13, Y2, Y2 // w = v | 1<<60
	VPXOR   Y3, Y3, Y3
	VPSUBQ  Y2, Y3, Y3  // -w
	VPAND   Y3, Y2, Y2  // w & -w: the level bit
	VPOR    Y2, Y12, Y12
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     keyloop

rowstore:
	VEXTRACTI128 $1, Y12, X3
	VPOR         X3, X12, X12
	VPSHUFD      $0x4E, X12, X3 // swap the two qwords
	VPOR         X3, X12, X12
	VMOVQ        X12, (DI)
	ADDQ         $16, BX // next row's 2 coefficients
	ADDQ         $8, DI
	DECQ         R10
	JMP          rowloop

done:
	VZEROUPPER
	RET

// func fieldK2AVX2(c0, c1 uint64, keys []uint64, out []uint64)
TEXT ·fieldK2AVX2(SB), NOSPLIT, $0-64
	BCAST(c1+8(FP), Y8)
	BCAST(c0+0(FP), Y9)
	CONSTANTS
	MOVQ keys_base+16(FP), SI
	MOVQ keys_len+24(FP), CX
	MOVQ out_base+40(FP), DI
	XORQ DX, DX
	CMPQ DX, CX
	JGE  done

loop:
	LOADKEYS
	VMOVDQA Y8, Y2
	HSTEP(Y9)
	CREDUCE
	VMOVDQU Y2, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     loop

done:
	VZEROUPPER
	RET

// func fieldK4AVX2(c0, c1, c2, c3 uint64, keys []uint64, out []uint64)
TEXT ·fieldK4AVX2(SB), NOSPLIT, $0-80
	BCAST(c3+24(FP), Y8)
	BCAST(c2+16(FP), Y9)
	BCAST(c1+8(FP), Y10)
	BCAST(c0+0(FP), Y11)
	CONSTANTS
	MOVQ keys_base+32(FP), SI
	MOVQ keys_len+40(FP), CX
	MOVQ out_base+56(FP), DI
	XORQ DX, DX
	CMPQ DX, CX
	JGE  done

loop:
	LOADKEYS
	VMOVDQA Y8, Y2
	HSTEP(Y9)
	HSTEP(Y10)
	HSTEP(Y11)
	CREDUCE
	VMOVDQU Y2, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     loop

done:
	VZEROUPPER
	RET

// func rangeK2AVX2(c0, c1, r uint64, keys []uint64, out []uint64)
//
// fieldK2 fused with the Lemire fast range onto [0, r). Callers
// reduce onto universe-sized ranges (r up to 2^60), so this is a full
// 64x64 high multiply of w = v<<3 by r, assembled from four VPMULUDQ
// partial products with an exact carry term.
TEXT ·rangeK2AVX2(SB), NOSPLIT, $0-72
	BCAST(c1+8(FP), Y8)
	BCAST(c0+0(FP), Y9)
	BCAST(r+16(FP), Y13)  // low dwords = rL
	MOVQ r+16(FP), AX
	SHRQ $32, AX
	MOVQ AX, X7
	VPBROADCASTQ X7, Y12  // rH
	MOVQ $0xFFFFFFFF, AX
	MOVQ AX, X7
	VPBROADCASTQ X7, Y11  // dword mask
	CONSTANTS
	MOVQ keys_base+24(FP), SI
	MOVQ keys_len+32(FP), CX
	MOVQ out_base+48(FP), DI
	XORQ DX, DX
	CMPQ DX, CX
	JGE  done

loop:
	LOADKEYS
	VMOVDQA Y8, Y2
	HSTEP(Y9)
	CREDUCE

	// hi = mulhi64(w, r), w = v<<3:
	//   carry = ((wL*rL)>>32 + lo32(wL*rH) + lo32(wH*rL)) >> 32
	//   hi    = wH*rH + (wL*rH)>>32 + (wH*rL)>>32 + carry
	VPSLLQ   $3, Y2, Y2
	VPSRLQ   $32, Y2, Y3
	VPMULUDQ Y13, Y2, Y4 // wL*rL
	VPMULUDQ Y12, Y2, Y5 // wL*rH
	VPMULUDQ Y13, Y3, Y6 // wH*rL
	VPMULUDQ Y12, Y3, Y3 // wH*rH
	VPSRLQ   $32, Y4, Y4
	VPAND    Y11, Y5, Y7
	VPADDQ   Y7, Y4, Y4
	VPAND    Y11, Y6, Y7
	VPADDQ   Y7, Y4, Y4
	VPSRLQ   $32, Y4, Y4 // carry
	VPSRLQ   $32, Y5, Y5
	VPSRLQ   $32, Y6, Y6
	VPADDQ   Y5, Y3, Y3
	VPADDQ   Y6, Y3, Y3
	VPADDQ   Y4, Y3, Y3  // hi
	VMOVDQU  Y3, (DI)(DX*8)

	ADDQ $4, DX
	CMPQ DX, CX
	JLT  loop

done:
	VZEROUPPER
	RET

// func gatherSignRowsAVX2(table *int64, tstride, rows int, idx *uint32, signs *int8, out *int64, m, rstride int)
//
// out = sign * table[row][idx] for signs in {-1, +1}, every row of the
// Count-Sketch query matrix in one call over a flat row-major table
// (tstride int64s per row): VPGATHERDQ pulls 4 counters by dword
// index, the sign bytes sign-extend to qword lanes, and lanes equal to
// -1 negate branch-free via (x ^ m) - m with m = (signs == -1).
// idx/signs/out are row-major with rstride elements per row; m is the
// per-row vector count (a multiple of 4, <= rstride — the Go wrapper
// keeps sub-4 tails for the scalar twin). The gather mask register is
// fully consumed by VPGATHERDQ and must be reloaded every iteration.
TEXT ·gatherSignRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ table+0(FP), BX
	MOVQ tstride+8(FP), R12
	SHLQ $3, R12 // row advance in bytes
	MOVQ rows+16(FP), R10
	MOVQ idx+24(FP), SI
	MOVQ signs+32(FP), R8
	MOVQ out+40(FP), DI
	MOVQ m+48(FP), CX
	MOVQ rstride+56(FP), R11

rowloop:
	TESTQ R10, R10
	JLE   done
	XORQ  DX, DX
	CMPQ  DX, CX
	JGE   rownext

keyloop:
	VMOVDQU    (SI)(DX*4), X1
	VPCMPEQD   Y2, Y2, Y2         // gather mask: all lanes
	VPGATHERDQ Y2, (BX)(X1*8), Y3
	VMOVD      (R8)(DX*1), X4
	VPMOVSXBQ  X4, Y4
	VPCMPEQD   Y5, Y5, Y5
	VPCMPEQQ   Y5, Y4, Y5         // m = (sign == -1) per lane
	VPXOR      Y5, Y3, Y3
	VPSUBQ     Y5, Y3, Y3         // (x ^ m) - m
	VMOVDQU    Y3, (DI)(DX*8)
	ADDQ       $4, DX
	CMPQ       DX, CX
	JLT        keyloop

rownext:
	ADDQ R12, BX         // table += tstride qwords
	LEAQ (SI)(R11*4), SI // idx += rstride dwords
	ADDQ R11, R8         // signs += rstride bytes
	LEAQ (DI)(R11*8), DI // out += rstride qwords
	DECQ R10
	JMP  rowloop

done:
	VZEROUPPER
	RET

// func gatherSignDiffRowsAVX2(cells *int64, tstride, rows int, idx *uint32, signs *int8, out *int64, m, rstride int)
//
// gatherSignRowsAVX2 over two-sided cells — each bucket is a
// (positive mass, negative mass) int64 pair, tstride int64s per row
// (2x the column count): out = sign * (pos - neg). Bucket index
// doubles via VPSLLD to address the pair's first int64; the negative
// side gathers from a base offset by one int64 (R13 = BX + 8). Both
// gathers reload their mask (VPGATHERDQ consumes it).
TEXT ·gatherSignDiffRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ cells+0(FP), BX
	MOVQ tstride+8(FP), R12
	SHLQ $3, R12 // row advance in bytes
	MOVQ rows+16(FP), R10
	MOVQ idx+24(FP), SI
	MOVQ signs+32(FP), R8
	MOVQ out+40(FP), DI
	MOVQ m+48(FP), CX
	MOVQ rstride+56(FP), R11
	LEAQ 8(BX), R13 // negative-side base

rowloop:
	TESTQ R10, R10
	JLE   done
	XORQ  DX, DX
	CMPQ  DX, CX
	JGE   rownext

keyloop:
	VMOVDQU    (SI)(DX*4), X1
	VPSLLD     $1, X1, X1          // bucket -> first int64 of the pair
	VPCMPEQD   Y2, Y2, Y2
	VPGATHERDQ Y2, (BX)(X1*8), Y3  // positive mass
	VPCMPEQD   Y2, Y2, Y2
	VPGATHERDQ Y2, (R13)(X1*8), Y6 // negative mass
	VPSUBQ     Y6, Y3, Y3          // diff (both sides < 2^63: exact)
	VMOVD      (R8)(DX*1), X4
	VPMOVSXBQ  X4, Y4
	VPCMPEQD   Y5, Y5, Y5
	VPCMPEQQ   Y5, Y4, Y5
	VPXOR      Y5, Y3, Y3
	VPSUBQ     Y5, Y3, Y3
	VMOVDQU    Y3, (DI)(DX*8)
	ADDQ       $4, DX
	CMPQ       DX, CX
	JLT        keyloop

rownext:
	ADDQ R12, BX         // cells += tstride qwords
	ADDQ R12, R13
	LEAQ (SI)(R11*4), SI // idx += rstride dwords
	ADDQ R11, R8         // signs += rstride bytes
	LEAQ (DI)(R11*8), DI // out += rstride qwords
	DECQ R10
	JMP  rowloop

done:
	VZEROUPPER
	RET

// CE: compare-exchange Ya <-> Yb so that Ya <= Yb. Clobbers Y7.
#define CE(Ya, Yb) \
	VMINPD  Ya, Yb, Y7 \
	VMAXPD  Ya, Yb, Yb \
	VMOVAPD Y7, Ya

// func medianOf7ColsAVX2(est, out *float64, stride, count int)
//
// Four columns of a 7 x stride row-major matrix per iteration, each
// run through the order.MedianOf7 13-exchange network on YMM lanes.
// Exact for inputs free of NaNs and signed zeros (sketch estimates
// are), where VMINPD/VMAXPD agree with Go's < on every lane.
TEXT ·medianOf7ColsAVX2(SB), NOSPLIT, $0-32
	MOVQ est+0(FP), R8
	MOVQ out+8(FP), DI
	MOVQ stride+16(FP), AX
	SHLQ $3, AX
	MOVQ count+24(FP), CX
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	LEAQ (R13)(AX*1), R14
	XORQ DX, DX
	CMPQ DX, CX
	JGE  done

loop:
	VMOVUPD (R8)(DX*8), Y0
	VMOVUPD (R9)(DX*8), Y1
	VMOVUPD (R10)(DX*8), Y2
	VMOVUPD (R11)(DX*8), Y3
	VMOVUPD (R12)(DX*8), Y4
	VMOVUPD (R13)(DX*8), Y5
	VMOVUPD (R14)(DX*8), Y6

	CE(Y0, Y5)
	CE(Y0, Y3)
	CE(Y1, Y6)
	CE(Y2, Y4)
	CE(Y0, Y1)
	CE(Y3, Y5)
	CE(Y2, Y6)
	CE(Y2, Y3)
	CE(Y3, Y6)
	CE(Y4, Y5)
	CE(Y1, Y4)
	CE(Y1, Y3)
	CE(Y3, Y4)

	VMOVUPD Y3, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     loop

done:
	VZEROUPPER
	RET

