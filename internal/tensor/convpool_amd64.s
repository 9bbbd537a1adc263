#include "textflag.h"

// AVX2 kernels of the fused ConvP block. As in gemm_amd64.s, additions
// are separate roundings in the scalar kernels' order (never FMA), so
// results are bit-identical to the portable path.

// SIGNROW adds (weight > 0) or subtracts (otherwise) the 16 source
// values in Y12:Y13 into one filter's accumulators — for a ±1 weight the
// exact product s + w·b that Gemm computes. The ordered GT compare sends
// a NaN weight to the subtract branch like the scalar `w > 0` test, and
// s + (b XOR signbit) is s − b.
#define SIGNROW(wreg, woff, acc0, acc1) \
	VBROADCASTSS woff(wreg), Y14; \
	VCMPPS $14, Y11, Y14, Y14; \
	VPANDN Y10, Y14, Y14; \
	VPXOR Y12, Y14, Y15; \
	VADDPS Y15, acc0, acc0; \
	VPXOR Y13, Y14, Y15; \
	VADDPS Y15, acc1, acc1

// TAP is one kernel column kx (byte offset 4·kx in both the band row
// and the weight rows) for all four filters.
#define TAP(off) \
	VMOVUPS off(BX), Y12; \
	VMOVUPS (off+32)(BX), Y13; \
	SIGNROW(R9, off, Y0, Y1); \
	SIGNROW(R10, off, Y2, Y3); \
	SIGNROW(R11, off, Y4, Y5); \
	SIGNROW(R12, off, Y6, Y7)

// func convSignKernel4x16(dst *float32, ds int, w, src *float32, ch, plane, wp int)
//
// dst[r][j] = Σ_{c,ky,kx} ±src[c*plane + ky*wp + kx + j] for r in [0,4),
// j in [0,16), accumulated from +0 in ascending (c, ky, kx) order.
TEXT ·convSignKernel4x16(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), DX
	SHLQ $2, DX             // dst row stride in bytes
	MOVQ w+16(FP), R9
	MOVQ src+24(FP), BX
	MOVQ ch+32(FP), CX
	MOVQ plane+40(FP), R13
	MOVQ wp+48(FP), R8
	SHLQ $2, R8             // band row stride in bytes
	SHLQ $2, R13
	LEAQ (R8)(R8*2), AX
	SUBQ AX, R13            // plane stride minus the three rows walked

	LEAQ (CX)(CX*8), AX
	SHLQ $2, AX             // weight row stride in bytes (ch*9 floats)
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12

	// Y10 = 0x80000000 in every lane, Y11 = +0.0 for the comparisons.
	VPCMPEQD Y10, Y10, Y10
	VPSLLD $31, Y10, Y10
	VXORPS Y11, Y11, Y11

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JE convstore

convchannel:
	MOVQ $3, SI
convrow:
	TAP(0)
	TAP(4)
	TAP(8)
	ADDQ $12, R9
	ADDQ $12, R10
	ADDQ $12, R11
	ADDQ $12, R12
	ADDQ R8, BX
	DECQ SI
	JNE convrow
	ADDQ R13, BX
	DECQ CX
	JNE convchannel

convstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ DX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ DX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ DX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// POOLROW folds one input row's three window columns into the running
// maxima in Y0, in kx order. The row pointer addresses input column
// 2·i0−1 for the group's first output i0: the even elements of the 16
// floats at (r) are the kx=0 taps, the odd ones kx=1, and the odd
// elements of the 16 floats at 4(r) are kx=2. VSHUFPS works within
// 128-bit halves, so all three land in the same permuted lane order
// (outputs 0,1,4,5 | 2,3,6,7), which the caller undoes once at the end.
//
// VMAXPS returns its second source unless the first compares greater
// (so also when either is NaN); with the candidate first and the
// running maximum second that is `v > m ? v : m` — NaN never wins.
#define POOLROW(r) \
	VMOVUPS (r), Y1; \
	VMOVUPS 32(r), Y2; \
	VSHUFPS $0x88, Y2, Y1, Y3; \
	VSHUFPS $0xDD, Y2, Y1, Y4; \
	VMOVUPS 4(r), Y1; \
	VMOVUPS 36(r), Y2; \
	VSHUFPS $0xDD, Y2, Y1, Y5; \
	VMAXPS Y0, Y3, Y0; \
	VMAXPS Y0, Y4, Y0; \
	VMAXPS Y0, Y5, Y0

// POOLROWX is POOLROW for four outputs in XMM registers, where VSHUFPS
// already yields output order.
#define POOLROWX(r) \
	VMOVUPS (r), X1; \
	VMOVUPS 16(r), X2; \
	VSHUFPS $0x88, X2, X1, X3; \
	VSHUFPS $0xDD, X2, X1, X4; \
	VMOVUPS 4(r), X1; \
	VMOVUPS 20(r), X2; \
	VSHUFPS $0xDD, X2, X1, X5; \
	VMAXPS X0, X3, X0; \
	VMAXPS X0, X4, X0; \
	VMAXPS X0, X5, X0

// func poolAffineSignKernel4(dst, r0, r1, r2 *float32, quads int, scale, shift float32)
//
// quads×4 outputs, eight at a time and then a last four: 3×3 stride-2
// max over the three rows, then scale·m (rounded) + shift (rounded),
// then +1 where the ordered compare `>= 0` holds and −1 elsewhere (so
// −1 for NaN, +1 for −0). A group of g outputs reads 2g+1 floats of
// each row.
TEXT ·poolAffineSignKernel4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ quads+32(FP), CX
	VBROADCASTSS scale+40(FP), Y8
	VBROADCASTSS shift+44(FP), Y9

	VPCMPEQD Y13, Y13, Y13
	VPSLLD $23, Y13, Y10    // 0xFF800000 = −Inf
	VPSRLD $25, Y13, Y12
	VPSLLD $23, Y12, Y12    // 0x3F800000 = +1.0
	VPSLLD $31, Y13, Y13    // sign bit
	VXORPS Y11, Y11, Y11

	MOVQ CX, BX
	ANDQ $1, BX             // a trailing group of four
	SHRQ $1, CX             // groups of eight
	JE poolquad

poolgroup:
	VMOVAPS Y10, Y0
	POOLROW(R8)
	POOLROW(R9)
	POOLROW(R10)
	VPERMPD $0xD8, Y0, Y0   // back to output order
	VMULPS Y8, Y0, Y0
	VADDPS Y9, Y0, Y0
	VCMPPS $13, Y11, Y0, Y1 // y >= 0, ordered (GE_OS)
	VPANDN Y13, Y1, Y1      // sign bit where the compare failed
	VPOR Y12, Y1, Y1        // ±1.0
	VMOVUPS Y1, (DI)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $32, DI
	DECQ CX
	JNE poolgroup

poolquad:
	TESTQ BX, BX
	JE pooldone
	VMOVAPS X10, X0
	POOLROWX(R8)
	POOLROWX(R9)
	POOLROWX(R10)
	VMULPS X8, X0, X0
	VADDPS X9, X0, X0
	VCMPPS $13, X11, X0, X1
	VPANDN X13, X1, X1
	VPOR X12, X1, X1
	VMOVUPS X1, (DI)

pooldone:
	VZEROUPPER
	RET

// func poolThresholdKernel4(r0, r1, r2 *float32, step, rows, quads int, s, t float32) uint64
//
// poolAffineSignKernel4's pooling with a threshold for an epilogue, over
// rows pooled rows step bytes apart: per row quads×4 window maxima m,
// eight at a time and then a last four, and bit i of the result set
// where s·m >= t (ordered), i counting outputs across the rows. A
// group's bits come from VMOVMSKPS and land at its first output's
// position.
TEXT ·poolThresholdKernel4(SB), NOSPLIT, $0-64
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ step+24(FP), R12
	MOVQ rows+32(FP), R13
	MOVQ quads+40(FP), DI
	VBROADCASTSS s+48(FP), Y8
	VBROADCASTSS t+52(FP), Y9

	VPCMPEQD Y10, Y10, Y10
	VPSLLD $23, Y10, Y10    // 0xFF800000 = −Inf

	XORQ AX, AX             // result
	XORQ CX, CX             // bit position of the next group (CL: the shift count)

threshrow:
	MOVQ R8, R11            // the row's cursors
	MOVQ R9, R14
	MOVQ R10, SI
	MOVQ DI, DX
	SHRQ $1, DX             // groups of eight
	JE threshquad

threshgroup:
	VMOVAPS Y10, Y0
	POOLROW(R11)
	POOLROW(R14)
	POOLROW(SI)
	VPERMPD $0xD8, Y0, Y0   // back to output order
	VMULPS Y8, Y0, Y0
	VCMPPS $13, Y9, Y0, Y1  // s·m >= t, ordered (GE_OS)
	VMOVMSKPS Y1, BX
	SHLQ CX, BX
	ORQ BX, AX
	ADDQ $8, CX
	ADDQ $64, R11
	ADDQ $64, R14
	ADDQ $64, SI
	DECQ DX
	JNE threshgroup

threshquad:
	TESTQ $1, DI            // a trailing group of four
	JE threshnext
	VMOVAPS X10, X0
	POOLROWX(R11)
	POOLROWX(R14)
	POOLROWX(SI)
	VMULPS X8, X0, X0
	VCMPPS $13, X9, X0, X1
	VMOVMSKPS X1, BX
	SHLQ CX, BX
	ORQ BX, AX
	ADDQ $4, CX

threshnext:
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	DECQ R13
	JNE threshrow

	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
