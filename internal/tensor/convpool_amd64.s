#include "textflag.h"

// AVX2 kernels of the serving ConvP blocks: the row-sum table
// convolution of the byte-frame block and the int16 pool and threshold
// every serving block ends in. Each is bit-identical to its portable
// kernel.

// SUMLEN is frameSumLen, (frameStrip+2)·64, the bytes between a
// channel's sums in the row-sum table, and CHANLEN frameChanLen, the
// bytes between channels; they must match convframe.go.
#define SUMLEN 1152
#define CHANLEN (4*SUMLEN)

// FSUMS stores a run's four sums of 16 columns of one parity, a+b+c,
// a+b−c, a−b+c and −a+b+c, at off, off+SUMLEN, … from BX.
#define FSUMS(v0, v1, v2, v3, off) \
	VMOVDQU v0, off(BX); \
	VMOVDQU v1, SUMLEN+off(BX); \
	VMOVDQU v2, 2*SUMLEN+off(BX); \
	VMOVDQU v3, 3*SUMLEN+off(BX)

// FRUN writes one run of 32 columns of the row-sum table to BX: Y0 holds
// the run's bytes, AX the byte after it (zero past the row's end) and
// Y7 the previous run's odd bytes (zero at the row's start). The words
// of the even bytes (E), of the odd ones (O), of the odd ones one column
// to the left (the previous run's last odd byte shifted in, L) and of
// the even ones one column to the right (the next byte shifted in, R)
// give each column's bytes x−1, x, x+1: L, E, O for the even columns and
// E, O, R for the odd ones, whose sums share P = E+O and M = E−O. Y15 is
// 0x00FF in every word.
#define FRUN \
	VPAND Y15, Y0, Y1; \
	VPSRLW $8, Y0, Y2; \
	VPERM2I128 $0x21, Y2, Y7, Y3; \
	VPALIGNR $14, Y3, Y2, Y3; \
	VMOVDQU Y2, Y7; \
	VMOVQ AX, X4; \
	VPERM2I128 $0x21, Y4, Y1, Y4; \
	VPALIGNR $2, Y1, Y4, Y4; \
	VPADDW Y2, Y1, Y5; \
	VPSUBW Y2, Y1, Y6; \
	VPADDW Y5, Y3, Y8; \
	VPADDW Y6, Y3, Y9; \
	VPSUBW Y6, Y3, Y10; \
	VPSUBW Y3, Y5, Y11; \
	FSUMS(Y8, Y9, Y10, Y11, 32); \
	VPADDW Y4, Y5, Y8; \
	VPSUBW Y4, Y5, Y9; \
	VPADDW Y4, Y6, Y10; \
	VPSUBW Y6, Y4, Y11; \
	FSUMS(Y8, Y9, Y10, Y11, 0)

// FZERO writes zero sums to table row BX of every run, from CX columns
// on: the row above or below the frame.
#define FZERO(L) \
	MOVQ R10, CX; \
L: \
	VMOVDQU Y14, (BX); \
	VMOVDQU Y14, 32(BX); \
	VMOVDQU Y14, SUMLEN(BX); \
	VMOVDQU Y14, SUMLEN+32(BX); \
	VMOVDQU Y14, 2*SUMLEN(BX); \
	VMOVDQU Y14, 2*SUMLEN+32(BX); \
	VMOVDQU Y14, 3*SUMLEN(BX); \
	VMOVDQU Y14, 3*SUMLEN+32(BX); \
	ADDQ R11, BX; \
	SUBQ $32, CX; \
	JGT L

// func frameStripAVX2(tab *int16, frames *byte, ch, plane, w, top, rows, bottom, runLen int)
//
// The row-sum table of one strip of ConvFrame3x3, for every channel: a
// row of zero sums when top is 1 (the row above the frame), then rows
// frame rows from frames on, then a row of zero sums when bottom is 1
// (the row below the frame). Table rows lie 64 bytes apart, runs runLen
// bytes and channels frameChanLen; frame rows lie w bytes apart and
// channels plane. A frame row is taken run by run of 32 columns (FRUN);
// its last run of fewer than 32 bytes is copied into a zeroed run on the
// stack first, so no byte past the row is read.
TEXT ·frameStripAVX2(SB), NOSPLIT, $32-72
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $8, Y15, Y15
	VPXOR Y14, Y14, Y14
	MOVQ tab+0(FP), DI
	MOVQ frames+8(FP), R12
	MOVQ ch+16(FP), R8
	MOVQ plane+24(FP), R13
	MOVQ w+32(FP), R10
	MOVQ runLen+64(FP), R11

stripchannel:
	MOVQ DI, R15            // table row
	MOVQ R12, SI            // frame row
	CMPQ top+40(FP), $0
	JEQ striprows
	MOVQ R15, BX
	FZERO(stripzerotop)
	ADDQ $64, R15
striprows:
	MOVQ rows+48(FP), R9
striprow:
	MOVQ R15, BX
	MOVQ SI, DX
	MOVQ R10, CX
	VPXOR Y7, Y7, Y7
striprun:
	CMPQ CX, $32
	JLT striptail
	VMOVDQU (DX), Y0
	XORL AX, AX
	CMPQ CX, $32
	JEQ stripnext
	MOVBLZX 32(DX), AX
stripnext:
	FRUN
	ADDQ $32, DX
	ADDQ R11, BX
	SUBQ $32, CX
	JNE striprun
	JMP striprowdone
striptail:
	VMOVDQU Y14, (SP)
	XORQ AX, AX
striptailcopy:
	MOVB (DX)(AX*1), R14
	MOVB R14, (SP)(AX*1)
	INCQ AX
	CMPQ AX, CX
	JLT striptailcopy
	VMOVDQU (SP), Y0
	XORL AX, AX
	FRUN
striprowdone:
	ADDQ R10, SI
	ADDQ $64, R15
	DECQ R9
	JNE striprow
	CMPQ bottom+56(FP), $0
	JEQ stripchanneldone
	MOVQ R15, BX
	FZERO(stripzerobottom)
stripchanneldone:
	ADDQ R13, R12
	ADDQ $CHANLEN, DI
	DECQ R8
	JNE stripchannel
	VZEROUPPER
	RET

// FROWS adds (op VPADDW) or subtracts (VPSUBW) one table row of a term
// to or from the records of one filter for eight output rows: its 16
// odd columns to Y(2i) and 16 even ones to Y(2i+1) for row i, the rows
// 64 bytes apart from R8.
#define FROWS(op) \
	op (R8), Y0, Y0; \
	op 32(R8), Y1, Y1; \
	op 64(R8), Y2, Y2; \
	op 96(R8), Y3, Y3; \
	op 128(R8), Y4, Y4; \
	op 160(R8), Y5, Y5; \
	op 192(R8), Y6, Y6; \
	op 224(R8), Y7, Y7; \
	op 256(R8), Y8, Y8; \
	op 288(R8), Y9, Y9; \
	op 320(R8), Y10, Y10; \
	op 352(R8), Y11, Y11; \
	op 384(R8), Y12, Y12; \
	op 416(R8), Y13, Y13; \
	op 448(R8), Y14, Y14; \
	op 480(R8), Y15, Y15

// FSTORE stores output row i's odd columns from a and even ones from b
// at SI and then moves SI to the next row, unless the block holds only i
// rows.
#define FSTORE(i, a, b) \
	CMPQ AX, $i; \
	JLE sumstored; \
	VMOVDQU a, (SI); \
	VMOVDQU b, (SI)(R14*1); \
	ADDQ R10, SI

// func convFrameSumsAVX2(rec *int16, ds, rs, half int, tab *int16, runLen, rows, runs, terms, filters int, taps *int32)
//
// The sums of one strip of ConvFrame3x3 from its row-sum table: for each
// filter, block of eight output rows and run of 32 columns, sixteen
// accumulators take one table row per output row of each of the
// filter's terms — one table offset each, for the block's first row —
// adding the ones it adds (FROWS(VPADDW)) and subtracting the others
// (FROWS(VPSUBW)), and go to the odd columns at the record and the even
// ones half int16 further on. rec is filter 0's record of the strip's first row from
// column 1; filters lie ds int16 apart and rows rs; each filter's taps
// are terms+1 int32, the count it adds first. A block past the strip's
// last row stores only the strip's rows.
TEXT ·convFrameSumsAVX2(SB), NOSPLIT, $8-88
	MOVQ ds+8(FP), DX
	SHLQ $1, DX             // filter stride in bytes
	MOVQ rs+16(FP), R10
	SHLQ $1, R10            // row stride in bytes
	MOVQ half+24(FP), R14
	SHLQ $1, R14            // even columns' offset in bytes
	MOVQ rec+0(FP), DI      // the filter's first record
	MOVQ taps+80(FP), R12   // the filter's taps
	MOVQ filters+72(FP), R13

sumfilter:
	XORQ R9, R9             // block's first row
sumblock:
	MOVQ tab+32(FP), R11
	MOVQ R9, AX
	SHLQ $6, AX
	ADDQ AX, R11            // the block's first table row of run 0
	MOVQ R9, AX
	IMULQ R10, AX
	ADDQ DI, AX
	MOVQ AX, 0(SP)          // the block's first record of run 0
	MOVQ runs+56(FP), R15
sumrun:
	LEAQ 4(R12), BX
	MOVLQSX (R12), CX       // terms added
	MOVQ terms+64(FP), SI
	SUBQ CX, SI             // terms subtracted
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	TESTQ CX, CX
	JEQ sumsub
sumadd:
	MOVLQSX (BX), R8
	ADDQ R11, R8
	FROWS(VPADDW)
	ADDQ $4, BX
	DECQ CX
	JNE sumadd
sumsub:
	TESTQ SI, SI
	JEQ sumdone
sumsubterm:
	MOVLQSX (BX), R8
	ADDQ R11, R8
	FROWS(VPSUBW)
	ADDQ $4, BX
	DECQ SI
	JNE sumsubterm
sumdone:
	MOVQ rows+48(FP), AX
	SUBQ R9, AX             // rows left in the strip
	MOVQ 0(SP), SI
	FSTORE(0, Y0, Y1)
	FSTORE(1, Y2, Y3)
	FSTORE(2, Y4, Y5)
	FSTORE(3, Y6, Y7)
	FSTORE(4, Y8, Y9)
	FSTORE(5, Y10, Y11)
	FSTORE(6, Y12, Y13)
	FSTORE(7, Y14, Y15)
sumstored:
	ADDQ $32, 0(SP)
	ADDQ runLen+40(FP), R11
	DECQ R15
	JNE sumrun

	ADDQ $8, R9
	CMPQ R9, rows+48(FP)
	JLT sumblock
	ADDQ DX, DI
	MOVQ terms+64(FP), AX
	LEAQ 4(R12)(AX*4), R12
	DECQ R13
	JNE sumfilter
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
// uint16 per row ored into out.
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
	ORW BX, (DI)
	ADDQ $2, DI
	ADDQ R9, SI
	DECQ CX
	JNE poolframerow
	VZEROUPPER
	RET
