#include "textflag.h"

// AVX2 GEMM micro-kernel. It keeps a 4-row × 16-column tile of C in
// eight YMM accumulators for the whole shared-dimension sweep.
// Multiplication and addition are separate roundings (VMULPS + VADDPS,
// never FMA) and every C element accumulates its products in ascending
// shared-dimension order with the accumulator as the addition's first
// source — exactly the scalar kernels' operation sequence — so results
// are bit-identical to the naive oracle (matmulRows), including NaN and Inf
// propagation.

// func gemmKernel4x16(c, a, b *float32, k, n int)
//
// C[r][j] += Σ_p A[r][p]·B[p][j] for r in [0,4), j in [0,16), with C
// and B row strides of n floats and an A row stride of k floats.
TEXT ·gemmKernel4x16(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), DX
	SHLQ $2, DX           // C/B row stride in bytes

	MOVQ k+24(FP), R8
	SHLQ $2, R8           // A row stride in bytes
	MOVQ SI, R9           // A row 0
	LEAQ (SI)(R8*1), R10  // A row 1
	LEAQ (R10)(R8*1), R11 // A row 2
	LEAQ (R11)(R8*1), R12 // A row 3

	MOVQ DI, R13          // C row 0, kept for the store-back
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	ADDQ DX, DI
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	ADDQ DX, DI
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	ADDQ DX, DI
	VMOVUPS (DI), Y6
	VMOVUPS 32(DI), Y7

	TESTQ CX, CX
	JE gemmstore

gemmloop:
	VMOVUPS (BX), Y12     // B[p][j..j+7]
	VMOVUPS 32(BX), Y13   // B[p][j+8..j+15]

	VBROADCASTSS (R9), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y0, Y0
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y1, Y1

	VBROADCASTSS (R10), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y2, Y2
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y3, Y3

	VBROADCASTSS (R11), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y4, Y4
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y5, Y5

	VBROADCASTSS (R12), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y6, Y6
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y7, Y7

	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ DX, BX
	DECQ CX
	JNE gemmloop

gemmstore:
	VMOVUPS Y0, (R13)
	VMOVUPS Y1, 32(R13)
	ADDQ DX, R13
	VMOVUPS Y2, (R13)
	VMOVUPS Y3, 32(R13)
	ADDQ DX, R13
	VMOVUPS Y4, (R13)
	VMOVUPS Y5, 32(R13)
	ADDQ DX, R13
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET
