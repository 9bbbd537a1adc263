#include "textflag.h"

// Nibble popcount lookup table for VPSHUFB (both 128-bit lanes) and the
// low-nibble mask.
DATA popcntLUT<>+0(SB)/8, $0x0302020102010100
DATA popcntLUT<>+8(SB)/8, $0x0403030203020201
DATA popcntLUT<>+16(SB)/8, $0x0302020102010100
DATA popcntLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popcntLUT<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32

// func xnorPopcntAVX2(a, b *uint64, quads int) int64
//
// Returns Σ popcount(a[i]^b[i]) over quads × 4 consecutive words using
// the PSHUFB nibble-lookup popcount (Mula's algorithm): per 32-byte
// chunk, XOR, split into nibbles, table-lookup per-byte counts, then
// VPSADBW folds the byte counts into qword lanes accumulated across the
// loop. Exact integer arithmetic — identical to the scalar kernels.
TEXT ·xnorPopcntAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ quads+16(FP), CX
	VMOVDQU popcntLUT<>(SB), Y4
	VMOVDQU nibbleMask<>(SB), Y5
	VPXOR Y6, Y6, Y6 // zero, for VPSADBW
	VPXOR Y7, Y7, Y7 // qword accumulator

	TESTQ CX, CX
	JE reduce

poploop:
	VMOVDQU (SI), Y0
	VPXOR (DI), Y0, Y0
	VPAND Y0, Y5, Y1   // low nibbles
	VPSRLW $4, Y0, Y2
	VPAND Y2, Y5, Y2   // high nibbles
	VPSHUFB Y1, Y4, Y1 // per-byte counts of low nibbles
	VPSHUFB Y2, Y4, Y2 // per-byte counts of high nibbles
	VPADDB Y2, Y1, Y1
	VPSADBW Y6, Y1, Y1 // fold bytes into 4 qword sums
	VPADDQ Y1, Y7, Y7
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNE poploop

reduce:
	VEXTRACTI128 $1, Y7, X0
	VPADDQ X0, X7, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ X1, X0, X0
	MOVQ X0, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func packSignsAVX2(dst *byte, src *float32, groups int)
//
// Packs the signs of groups × 32 floats into groups × 4 bytes: bit i is
// set when src[i] >= 0. Each group of 8 floats is compared against zero
// with the ordered GE predicate (NaN packs as 0, -0.0 packs as 1,
// exactly the scalar `v >= 0` test) and the 8-lane mask extracted with
// VMOVMSKPS — the fused binarize+pack kernel.
TEXT ·packSignsAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+16(FP), CX
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JE packdone

packloop:
	VMOVUPS (SI), Y0
	VCMPPS $13, Y3, Y0, Y0 // src >= 0, ordered (GE_OS)
	VMOVMSKPS Y0, AX
	VMOVUPS 32(SI), Y1
	VCMPPS $13, Y3, Y1, Y1
	VMOVMSKPS Y1, BX
	SHLQ $8, BX
	ORQ BX, AX
	VMOVUPS 64(SI), Y0
	VCMPPS $13, Y3, Y0, Y0
	VMOVMSKPS Y0, R8
	SHLQ $16, R8
	ORQ R8, AX
	VMOVUPS 96(SI), Y1
	VCMPPS $13, Y3, Y1, Y1
	VMOVMSKPS Y1, R9
	SHLQ $24, R9
	ORQ R9, AX
	MOVL AX, (DI)
	ADDQ $128, SI
	ADDQ $4, DI
	DECQ CX
	JNE packloop

packdone:
	VZEROUPPER
	RET

DATA oneShifted<>+0(SB)/4, $0x7f000000
GLOBL oneShifted<>(SB), RODATA|NOPTR, $4

// func ternaryMasksAVX2(pos, nz *byte, src *float32, chStride, c, groups int) bool
//
// For each of c channel rows (chStride floats apart, starting at src) and
// each of groups consecutive 8-float groups g of the row, writes at byte
// g·c+ci the +1 lanes (pos) and the ±1 lanes (nz) of the group, bit k
// for float k. Returns false at the first group holding a value other
// than −1, −0, +0 or +1: the float shifted left by one (dropping the
// sign) must equal 0 or 1.0's magnitude bits, so NaN and ±Inf fail.
TEXT ·ternaryMasksAVX2(SB), NOSPLIT, $0-49
	MOVQ pos+0(FP), DI
	MOVQ nz+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ chStride+24(FP), R9
	SHLQ $2, R9 // bytes between channel rows
	MOVQ c+32(FP), R10
	MOVQ groups+40(FP), R11
	VPBROADCASTD oneShifted<>(SB), Y5
	VPXOR Y6, Y6, Y6
	XORQ CX, CX // channel

chanloop:
	CMPQ CX, R10
	JGE tmdone
	MOVQ SI, R12  // group pointer
	MOVQ CX, R13  // output byte offset g·c+ci
	XORQ BX, BX   // group

grouploop:
	CMPQ BX, R11
	JGE nextchan
	VMOVUPS (R12), Y0
	VPSLLD $1, Y0, Y1
	VPCMPEQD Y5, Y1, Y2 // ±1
	VPCMPEQD Y6, Y1, Y3 // ±0
	VPOR Y2, Y3, Y3
	VMOVMSKPS Y3, AX
	CMPL AX, $0xff
	JNE tmfail
	VMOVMSKPS Y2, AX
	MOVB AX, (R8)(R13*1)
	VMOVMSKPS Y0, DX // sign bits
	NOTL DX
	ANDL DX, AX
	MOVB AX, (DI)(R13*1)
	ADDQ $32, R12
	ADDQ R10, R13
	INCQ BX
	JMP grouploop

nextchan:
	ADDQ R9, SI
	INCQ CX
	JMP chanloop

tmdone:
	MOVB $1, ret+48(FP)
	VZEROUPPER
	RET

tmfail:
	MOVB $0, ret+48(FP)
	VZEROUPPER
	RET

// func xnorRowAVX2(out *float32, cs int, win *uint64, w, kw, groups int, wts *uint64)
//
// Sweeps groups×4 filters over one output row of w windows (xnorconv.go):
// window ox is 2·kw+1 words at win — kw (sign, nonzero) pairs, then the
// nonzero count — and filter group g is kw×4 words at wts, word i of its
// four filters side by side. Each YMM lane holds one filter: per word,
// (sign ⊕ filter) ∧ nonzero is popcounted with the nibble lookup into byte
// counts (at most 8 per byte per word, so kw ≤ 31 cannot overflow), which
// VPSADBW folds into the four popcounts h. Filter 4g+l's output at column
// ox is the float nz − 2h at out + ((4g+l)·cs + ox)·4.
TEXT ·xnorRowAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ cs+8(FP), R8
	SHLQ $2, R8 // bytes between filter rows
	MOVQ win+16(FP), SI
	MOVQ kw+32(FP), R10
	MOVQ groups+40(FP), R11
	MOVQ wts+48(FP), DX
	LEAQ 1(R10)(R10*1), R12
	SHLQ $3, R12 // bytes per window
	MOVQ w+24(FP), R9
	IMULQ R12, R9
	ADDQ SI, R9 // end of the row's windows
	VMOVDQU popcntLUT<>(SB), Y4
	VMOVDQU nibbleMask<>(SB), Y5
	VPXOR Y6, Y6, Y6

posloop:
	CMPQ SI, R9
	JGE rowdone
	LEAQ (R10)(R10*1), AX
	MOVQ (SI)(AX*8), AX // nonzero count
	VMOVQ AX, X10 // VEX form: a legacy-SSE MOVQ here costs an AVX transition
	VPBROADCASTD X10, X10
	MOVQ DX, BX  // filter words
	MOVQ DI, AX  // output of the group's first filter
	MOVQ R11, CX // groups left

grouploop:
	MOVQ SI, R13 // window words
	MOVQ R10, R14
	VPXOR Y7, Y7, Y7

wordloop:
	VPBROADCASTQ (R13), Y0
	VPBROADCASTQ 8(R13), Y1
	VPXOR (BX), Y0, Y0
	VPAND Y1, Y0, Y0
	VPAND Y5, Y0, Y2
	VPSRLW $4, Y0, Y3
	VPAND Y5, Y3, Y3
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y3, Y4, Y3
	VPADDB Y2, Y7, Y7
	VPADDB Y3, Y7, Y7
	ADDQ $16, R13
	ADDQ $32, BX
	DECQ R14
	JNE wordloop

	VPSADBW Y6, Y7, Y7
	VEXTRACTI128 $1, Y7, X8
	VSHUFPS $0x88, X8, X7, X7 // h of the four filters
	VPSLLD $1, X7, X7
	VPSUBD X7, X10, X7
	VCVTDQ2PS X7, X7
	VMOVSS X7, (AX)
	ADDQ R8, AX
	VEXTRACTPS $1, X7, (AX)
	ADDQ R8, AX
	VEXTRACTPS $2, X7, (AX)
	ADDQ R8, AX
	VEXTRACTPS $3, X7, (AX)
	ADDQ R8, AX
	DECQ CX
	JNE grouploop

	ADDQ R12, SI
	ADDQ $4, DI
	JMP posloop

rowdone:
	VZEROUPPER
	RET
