#include "textflag.h"

// AVX2 kernels of the serving ConvP blocks: the integer convolution of
// the byte-frame block and the int16 pool and threshold every serving
// block ends in. Each is bit-identical to its portable kernel.

// FROW is one filter's kernel row in convFrameKernel4x32: VPMADDUBSW
// multiplies the frame bytes (unsigned) by the filter's signed byte
// pairs and adds each pair into a 16-bit lane. Y8 holds the bytes from
// the run's first padded column and Y9 from the next, so with the
// (w0, w1) pairs lane i of Y8 is the kx = 0, 1 taps of even column 2i and
// lane i of Y9 those of odd column 2i+1; Y10 and Y11, two columns on,
// with the (w2, 0) pairs add the kx = 2 taps. Each pair sum is at most
// 510 in magnitude, so VPMADDUBSW never saturates.
#define FROW(wreg, e, o) \
	VPBROADCASTD (wreg), Y12; \
	VPBROADCASTD 4(wreg), Y13; \
	VPMADDUBSW Y12, Y8, Y14; \
	VPADDW Y14, e, e; \
	VPMADDUBSW Y13, Y10, Y14; \
	VPADDW Y14, e, e; \
	VPMADDUBSW Y12, Y9, Y15; \
	VPADDW Y15, o, o; \
	VPMADDUBSW Y13, Y11, Y15; \
	VPADDW Y15, o, o

// func convFrameKernel4x32(dst *int16, ds, eoff int, w *int8, ws int, src *byte, ch, plane, wp int)
//
// Four filters over 32 consecutive columns of one output row of
// ConvFrame3x3: the 16 odd columns' sums go to dst, the 16 even ones'
// to dst+eoff, for each filter ds int16 further on. w is the first
// filter's FrameWeights rows, ws bytes apart per filter, and src the
// run's first padded column in channel 0's top kernel row.
TEXT ·convFrameKernel4x32(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), DX
	SHLQ $1, DX             // filter stride in bytes
	MOVQ eoff+16(FP), R14
	SHLQ $1, R14            // even columns' offset in bytes
	MOVQ w+24(FP), R9
	MOVQ ws+32(FP), AX
	MOVQ src+40(FP), BX
	MOVQ ch+48(FP), CX
	MOVQ plane+56(FP), R13
	MOVQ wp+64(FP), R8
	LEAQ (R8)(R8*2), SI
	SUBQ SI, R13            // plane stride minus the three rows walked
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

framechannel:
	MOVQ $3, SI
framerow:
	VMOVDQU (BX), Y8
	VMOVDQU 1(BX), Y9
	VMOVDQU 2(BX), Y10
	VMOVDQU 3(BX), Y11
	FROW(R9, Y0, Y1)
	FROW(R10, Y2, Y3)
	FROW(R11, Y4, Y5)
	FROW(R12, Y6, Y7)
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ R8, BX
	DECQ SI
	JNE framerow
	ADDQ R13, BX
	DECQ CX
	JNE framechannel

	VMOVDQU Y1, (DI)
	VMOVDQU Y0, (DI)(R14*1)
	ADDQ DX, DI
	VMOVDQU Y3, (DI)
	VMOVDQU Y2, (DI)(R14*1)
	ADDQ DX, DI
	VMOVDQU Y5, (DI)
	VMOVDQU Y4, (DI)(R14*1)
	ADDQ DX, DI
	VMOVDQU Y7, (DI)
	VMOVDQU Y6, (DI)(R14*1)
	VZEROUPPER
	RET

// func poolFrameKernel16(rec *int16, rs, half, rows int, s, t1 int16, out *uint16)
//
// PoolFrameThreshold for one group of 16 outputs over rows pooled
// rows: rec points at the group's first column in the record of row −1,
// records are rs int16 apart and pooled rows two records apart. Per
// row, the window maxima of the odd columns at 0 and 1 and the even
// column at 1+half of three records (VPMAXSW: exact, in any order), then
// s·m > t1 (VPSIGNW, VPCMPGTW) packed to 16 bits in output order, one
// uint16 per row to out.
TEXT ·poolFrameKernel16(SB), NOSPLIT, $0-48
	MOVQ rec+0(FP), SI
	MOVQ rs+8(FP), DX
	SHLQ $1, DX             // record stride in bytes
	MOVQ half+16(FP), R8
	LEAQ 2(R8*2), R8        // even columns' offset in bytes
	MOVQ rows+24(FP), CX
	VPBROADCASTW s+32(FP), Y8
	VPBROADCASTW t1+34(FP), Y9
	MOVQ out+40(FP), DI
	LEAQ (DX)(DX*1), R9     // pooled row stride

poolframerow:
	VMOVDQU (SI), Y0
	VPMAXSW 2(SI), Y0, Y0
	VPMAXSW (SI)(R8*1), Y0, Y0
	LEAQ (SI)(DX*1), AX
	VPMAXSW (AX), Y0, Y0
	VPMAXSW 2(AX), Y0, Y0
	VPMAXSW (AX)(R8*1), Y0, Y0
	ADDQ DX, AX
	VPMAXSW (AX), Y0, Y0
	VPMAXSW 2(AX), Y0, Y0
	VPMAXSW (AX)(R8*1), Y0, Y0
	VPSIGNW Y8, Y0, Y0
	VPCMPGTW Y9, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSWB X1, X0, X0
	VPMOVMSKB X0, BX
	MOVW BX, (DI)
	ADDQ $2, DI
	ADDQ R9, SI
	DECQ CX
	JNE poolframerow
	VZEROUPPER
	RET
