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

// ASMROW copies kernel row k's q whole (sign, nonzero) pairs from its
// segment at srow to R14, which it advances, ors the segment's tail in
// at the window's tail words (tails[3k], tails[3k+1] at R8: the tail
// pair's byte offset from DI and the shift; tails[3k+2]: it spills into
// the next pair) and adds the segment's nonzero count to R11.
#define ASMROW(k, srow, copy, tail, done) \
	LEAQ srow, R13; \
	MOVQ q+40(FP), R12; \
	TESTQ R12, R12; \
	JE tail; \
copy: \
	VMOVDQU (R13), X0; \
	VMOVDQU X0, (R14); \
	ADDQ $16, R13; \
	ADDQ $16, R14; \
	DECQ R12; \
	JNE copy; \
tail: \
	CMPQ tw+48(FP), $0; \
	JE done; \
	MOVQ (R13), AX; \
	MOVQ 8(R13), DX; \
	ADDQ $16, R13; \
	MOVQ (k*24)(R8), BX; \
	ADDQ DI, BX; \
	MOVQ (k*24+8)(R8), CX; \
	MOVQ AX, R12; \
	SHLQ CX, R12; \
	ORQ R12, (BX); \
	MOVQ DX, R12; \
	SHLQ CX, R12; \
	ORQ R12, 8(BX); \
	CMPQ (k*24+16)(R8), $0; \
	JE done; \
	NEGQ CX; \
	SHRQ CX, AX; \
	ORQ AX, 16(BX); \
	SHRQ CX, DX; \
	ORQ DX, 24(BX); \
done: \
	ADDQ (R13), R11

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

// POPACC adds the byte popcounts of the bits of Y2 to acc (nibble
// lookup; Y3 is clobbered).
#define POPACC(acc) \
	VPSRLW $4, Y2, Y3; \
	VPAND Y5, Y2, Y2; \
	VPAND Y5, Y3, Y3; \
	VPSHUFB Y2, Y4, Y2; \
	VPSHUFB Y3, Y4, Y3; \
	VPADDB Y2, acc, acc; \
	VPADDB Y3, acc, acc

// func xnorSweepAVX2(out *int16, ds int, win *uint64, n, ww, pairs int, wts *uint64)
//
// Sweeps pairs×8 filters over n windows (xnorconv.go), 2·ww+1 words
// apart from win: ww (sign, nonzero) word pairs, then the window's
// nonzero count nz. Filter group g is ww×4 words at wts, word i of its
// four filters side by side, and groups 2p and 2p+1 are swept together.
// Each YMM lane holds one filter: per word, (sign ⊕ filter) ∧ nonzero
// is popcounted with the nibble lookup into byte counts (at most 8 per
// byte per word, so ww ≤ 31 cannot overflow), which VPSADBW folds into
// the popcounts h. Filter f's count for window k, the int16 nz − 2h,
// goes to out + (f·ds + k)·2. The frame holds the windows left.
TEXT ·xnorSweepAVX2(SB), NOSPLIT, $8-56
	MOVQ out+0(FP), DI
	MOVQ ds+8(FP), R8
	SHLQ $1, R8 // bytes between filters' records
	MOVQ win+16(FP), SI
	MOVQ n+24(FP), AX
	MOVQ AX, 0(SP) // windows left
	MOVQ ww+32(FP), R10
	MOVQ R10, R12
	SHLQ $4, R12 // bytes of a window's pairs: its count's offset
	MOVQ pairs+40(FP), R11
	MOVQ wts+48(FP), DX
	VMOVDQU popcntLUT<>(SB), Y4
	VMOVDQU nibbleMask<>(SB), Y5
	VPXOR Y6, Y6, Y6
	MOVQ R10, R15
	SHLQ $5, R15 // bytes of a group's filter words

sweepwin:
	VPBROADCASTD (SI)(R12*1), Y10 // nz
	MOVQ DX, BX  // filter words of the pair's first group
	MOVQ DI, AX  // record of the pair's first filter
	MOVQ R11, CX // pairs left

sweeppair:
	MOVQ SI, R13 // window words
	MOVQ BX, R9  // the pair's filter words
	MOVQ R10, R14
	VPXOR Y7, Y7, Y7
	VPXOR Y9, Y9, Y9

sweepword:
	VPBROADCASTQ (R13), Y0
	VPBROADCASTQ 8(R13), Y1
	VPXOR (R9), Y0, Y2
	VPAND Y1, Y2, Y2
	POPACC(Y7)
	VPXOR (R9)(R15*1), Y0, Y2
	VPAND Y1, Y2, Y2
	POPACC(Y9)
	ADDQ $16, R13
	ADDQ $32, R9
	DECQ R14
	JNE sweepword

	VPSADBW Y6, Y7, Y7
	VPSADBW Y6, Y9, Y9
	VPSLLQ $32, Y9, Y9
	VPOR Y9, Y7, Y7 // h: filters 0, 4, 1, 5 | 2, 6, 3, 7 of the pair
	VPSLLD $1, Y7, Y7
	VPSUBD Y7, Y10, Y7
	VEXTRACTI128 $1, Y7, X8
	VPACKSSDW X8, X7, X7 // nz − 2h as int16, exact for |·| ≤ 9C
	VMOVQ X7, R9
	MOVW R9, (AX)
	SHRQ $16, R9
	MOVW R9, (AX)(R8*4)
	ADDQ R8, AX
	SHRQ $16, R9
	MOVW R9, (AX)
	SHRQ $16, R9
	MOVW R9, (AX)(R8*4)
	ADDQ R8, AX
	VPEXTRQ $1, X7, R9
	MOVW R9, (AX)
	SHRQ $16, R9
	MOVW R9, (AX)(R8*4)
	ADDQ R8, AX
	SHRQ $16, R9
	MOVW R9, (AX)
	SHRQ $16, R9
	MOVW R9, (AX)(R8*4)
	ADDQ R8, AX
	LEAQ (AX)(R8*4), AX // the next pair's first filter
	LEAQ (BX)(R15*2), BX
	DECQ CX
	JNE sweeppair

	LEAQ 8(SI)(R12*1), SI // the next window
	ADDQ $2, DI
	DECQ 0(SP)
	JNE sweepwin

	VZEROUPPER
	RET

// func xnorSegmentsAMD64(seg, sgn, nz *uint64, rows, rsw, n, c, q, ht int, tmask uint64)
//
// The row segments of rows padded rows, rsw words apart from sgn and
// nz: per row, per position ox < n, the 3C bits from bit ox·c as q
// whole (sign, nonzero) word pairs, then, when ht is 1, the tail pair
// masked to tmask, then the nonzero count, written back to back from
// seg.
TEXT ·xnorSegmentsAMD64(SB), NOSPLIT, $16-80
	MOVQ seg+0(FP), DI
	MOVQ sgn+8(FP), SI
	MOVQ nz+16(FP), R8
	MOVQ rows+24(FP), AX
	MOVQ AX, 0(SP) // rows left
	MOVQ rsw+32(FP), R9
	SHLQ $3, R9 // bytes between rows

segrow:
	XORQ R10, R10 // the position's bit offset
	MOVQ n+40(FP), AX
	MOVQ AX, 8(SP) // positions left

segpos:
	MOVQ R10, AX
	SHRQ $6, AX
	LEAQ (SI)(AX*8), R13
	LEAQ (R8)(AX*8), R14
	MOVQ R10, CX // SHRQ reads its low six bits
	XORQ R11, R11
	MOVQ q+56(FP), R12
	TESTQ R12, R12
	JE segtail

segword:
	MOVQ (R13), AX
	MOVQ 8(R13), BX
	SHRQ CX, BX, AX
	MOVQ (R14), DX
	MOVQ 8(R14), BX
	SHRQ CX, BX, DX
	MOVQ AX, (DI)
	MOVQ DX, 8(DI)
	POPCNTQ DX, DX
	ADDQ DX, R11
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $16, DI
	DECQ R12
	JNE segword

segtail:
	CMPQ ht+64(FP), $0
	JE segcount
	MOVQ (R13), AX
	MOVQ 8(R13), BX
	SHRQ CX, BX, AX
	ANDQ tmask+72(FP), AX
	MOVQ (R14), DX
	MOVQ 8(R14), BX
	SHRQ CX, BX, DX
	ANDQ tmask+72(FP), DX
	MOVQ AX, (DI)
	MOVQ DX, 8(DI)
	POPCNTQ DX, DX
	ADDQ DX, R11
	ADDQ $16, DI

segcount:
	MOVQ R11, (DI)
	ADDQ $8, DI
	ADDQ c+48(FP), R10
	DECQ 8(SP)
	JNE segpos
	ADDQ R9, SI
	ADDQ R9, R8
	DECQ 0(SP)
	JNE segrow
	RET

// func xnorAssembleAMD64(win, seg *uint64, n, step, rs, q, tw int, tails *windowTails)
//
// xnorWindow.build from row segments (xnorSegmentsAMD64): n windows,
// the first from the segments at seg and each next one step bytes on,
// kernel rows rs bytes apart, written back to back from win — per
// window its 3·q whole pairs, its tw tail pairs (zeroed, then each
// kernel row's tail ored in) and its nonzero count.
TEXT ·xnorAssembleAMD64(SB), NOSPLIT, $8-64
	MOVQ win+0(FP), DI
	MOVQ seg+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ AX, 0(SP) // windows left
	MOVQ rs+32(FP), R9
	MOVQ tails+56(FP), R8

asmwin:
	MOVQ q+40(FP), AX
	IMUL3Q $48, AX, AX
	LEAQ (DI)(AX*1), BX // the tail pairs
	MOVQ tw+48(FP), DX
	TESTQ DX, DX
	JE asmrows

asmzero:
	MOVQ $0, (BX)
	MOVQ $0, 8(BX)
	ADDQ $16, BX
	DECQ DX
	JNE asmzero

asmrows:
	XORQ R11, R11
	MOVQ DI, R14
	ASMROW(0, (SI), copy0, tail0, done0)
	ASMROW(1, (SI)(R9*1), copy1, tail1, done1)
	ASMROW(2, (SI)(R9*2), copy2, tail2, done2)
	MOVQ tw+48(FP), AX
	SHLQ $4, AX
	MOVQ R11, (R14)(AX*1) // the count, after the tail pairs
	LEAQ 8(R14)(AX*1), DI // the next window
	ADDQ step+24(FP), SI
	DECQ 0(SP)
	JNE asmwin
	RET

// func placeSignsAMD64(sgn *uint64, chans **byte, n, h, w, rowBits, bit0, c int, st *byte)
//
// Planes.Place's signs for up to 32 channels, w a multiple of 8: per
// image row, each present channel's row bytes (chans[k] is channel k's
// plane, h·w/8 bytes, nil when absent) are gathered into column k of st,
// w/8 rows of 32 bytes whose other columns stay zero. Per 8-pixel run,
// VPMOVMSKB then reads one bit of every byte — pixel x's 32 channel
// bits — and VPADDB moves the next bit up, pixels 7 … 0 of the run.
// Each pixel's bits are ored into sgn at bit bit0 + y·rowBits + x·c.
TEXT ·placeSignsAMD64(SB), NOSPLIT, $0-72
	MOVQ sgn+0(FP), DI
	MOVQ h+24(FP), R8
	MOVQ w+32(FP), R9
	SHRQ $3, R9 // bytes of a channel's row
	MOVQ bit0+48(FP), R10
	XORQ R11, R11 // the row's first byte in a plane

placerow:
	MOVQ chans+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ st+64(FP), BX

placegather:
	MOVQ (SI), DX
	TESTQ DX, DX
	JE placenextch
	ADDQ R11, DX
	MOVQ R9, R12
	MOVQ BX, R13

placebyte:
	MOVBLZX (DX), AX
	MOVB AX, (R13)
	INCQ DX
	ADDQ $32, R13
	DECQ R12
	JNE placebyte

placenextch:
	ADDQ $8, SI
	INCQ BX
	DECQ CX
	JNE placegather

	MOVQ st+64(FP), SI
	MOVQ R9, R12
	MOVQ c+56(FP), AX
	MOVQ AX, R15
	SHLQ $4, R15 // sixteen pixels: from before a run to the next run's last pixel
	IMUL3Q $7, AX, R13
	ADDQ R10, R13 // the run's last pixel

placerun:
	VMOVDQU (SI), Y0
	MOVQ $8, R14

placepixel:
	VPMOVMSKB Y0, AX
	VPADDB Y0, Y0, Y0
	TESTQ AX, AX
	JE placeskip
	MOVQ R13, CX
	MOVQ R13, DX
	SHRQ $6, DX
	MOVQ AX, BX
	SHLQ CX, BX
	ORQ BX, (DI)(DX*8)
	ANDQ $63, CX
	CMPQ CX, $32
	JLS placeskip
	NEGQ CX
	SHRQ CX, AX
	ORQ AX, 8(DI)(DX*8)

placeskip:
	SUBQ c+56(FP), R13
	DECQ R14
	JNE placepixel

	ADDQ R15, R13
	ADDQ $32, SI
	DECQ R12
	JNE placerun

	ADDQ rowBits+40(FP), R10
	ADDQ R9, R11
	DECQ R8
	JNE placerow
	VZEROUPPER
	RET
