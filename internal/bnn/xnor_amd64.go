package bnn

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// xnorPopcntAVX2 (xnor_amd64.s) sums popcount(a[i]^b[i]) over quads×4
// consecutive words with the PSHUFB nibble-lookup popcount.
//
//go:noescape
func xnorPopcntAVX2(a, b *uint64, quads int) int64

// packSignsAVX2 (xnor_amd64.s) packs the signs of groups×32 floats into
// groups×4 bytes with VCMPPS(GE)+VMOVMSKPS.
//
//go:noescape
func packSignsAVX2(dst *byte, src *float32, groups int)

// xnorHammingSIMD runs the AVX2 popcount over 4-word chunks and
// finishes the remainder with scalar 64-bit popcounts.
func xnorHammingSIMD(aw, bw []uint64) int {
	h := 0
	quads := len(aw) / 4
	if quads > 0 {
		h = int(xnorPopcntAVX2(&aw[0], &bw[0], quads))
	}
	for i := quads * 4; i < len(aw); i++ {
		h += bits.OnesCount64(aw[i] ^ bw[i])
	}
	return h
}

// packSignsSIMD packs 32-float groups with the AVX2 kernel and finishes
// the tail (which starts on a byte boundary) with the scalar kernel.
func packSignsSIMD(dst []byte, src []float32) {
	groups := len(src) / 32
	if groups > 0 {
		packSignsAVX2(&dst[0], &src[0], groups)
	}
	packSignsNaive(dst, src, groups*32)
}

// packWordsSIMD packs into the word layout by viewing the word slice as
// bytes — on little-endian amd64, byte k of a uint64 holds bits
// 8k..8k+7, exactly the PackSigns byte layout, so the byte kernel fills
// the words in place. Tail bytes of the last word stay zero, preserving
// the bits-past-N invariant.
func packWordsSIMD(words []uint64, v []float32) {
	if len(words) == 0 {
		return
	}
	view := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	packSignsSIMD(view, v)
}

// xnorSweepAVX2 (xnor_amd64.s) sweeps pairs×8 filters over n windows
// of ww words each; see xnorSweep.
//
//go:noescape
func xnorSweepAVX2(out *int16, ds int, win *uint64, n, ww, pairs int, wts *uint64)

// xnorSweepSIMD is xnorSweep for filters [0, 8·pairs) on the AVX2
// kernel. The caller keeps ww ≤ 31, so no byte counter overflows.
func xnorSweepSIMD(out []int16, ds int, win []uint64, n, ww, pairs int, wts []uint64) {
	if need := (8*pairs-1)*ds + n; n > 0 && (len(out) < need || len(win) < n*(2*ww+1) || len(wts) < 8*pairs*ww) {
		panic(fmt.Sprintf("bnn: xnorSweepSIMD %d windows of %d words, %d pairs: slices %d, %d, %d too short", n, ww, pairs, len(out), len(win), len(wts)))
	}
	xnorSweepAVX2(&out[0], ds, &win[0], n, ww, pairs, &wts[0])
}

// xnorSegmentsAMD64 and xnorAssembleAMD64 (xnor_amd64.s) are
// xnorWindow.segments and xnorWindow.assemble.
//
//go:noescape
func xnorSegmentsAMD64(seg, sgn, nz *uint64, rows, rsw, n, c, q, ht int, tmask uint64)

//go:noescape
func xnorAssembleAMD64(win, seg *uint64, n, step, rs, q, tw int, tails *windowTails)

// segmentsSIMD is xnorWindow.segments on the amd64 kernel.
func (wl xnorWindow) segmentsSIMD(seg, sgn, nz []uint64, c, w, rows, rsw int) {
	ss, ht := wl.segWords(), min(wl.t, 1)
	if last := (rows-1)*rsw + ((w-1)*c+3*c)/64 + 1; len(seg) < rows*w*ss || len(sgn) <= last || len(nz) <= last {
		panic(fmt.Sprintf("bnn: segments of %d rows of %d positions: slices %d, %d, %d too short", rows, w, len(seg), len(sgn), len(nz)))
	}
	xnorSegmentsAMD64(&seg[0], &sgn[0], &nz[0], rows, rsw, w, c, wl.q, ht, uint64(1)<<uint(wl.t)-1)
}

// assembleSIMD is xnorWindow.assemble on the amd64 kernel.
func (wl xnorWindow) assembleSIMD(win, seg []uint64, w int, tails *windowTails) {
	ws, ss, ne := 2*wl.ww+1, wl.segWords(), (w+1)/2
	if len(win) < w*ws || len(seg) < 3*w*ss {
		panic(fmt.Sprintf("bnn: %d windows of %d words from segments of %d: slices %d, %d too short", w, ws, ss, len(win), len(seg)))
	}
	tw := wl.ww - 3*wl.q
	xnorAssembleAMD64(&win[0], &seg[0], ne, 16*ss, 8*w*ss, wl.q, tw, tails)
	if w > ne {
		xnorAssembleAMD64(&win[ne*ws], &seg[ss], w-ne, 16*ss, 8*w*ss, wl.q, tw, tails)
	}
}

// placeSignsAMD64 (xnor_amd64.s) ors the signs of up to 32 channels'
// planes into sgn; see placeSignsSIMD.
//
//go:noescape
func placeSignsAMD64(sgn *uint64, chans **byte, n, h, w, rowBits, bit0, c int, st *byte)

// placeSignsSIMD is Planes.Place's sign loop on the simd path: it ors
// the n ≤ 32 channels whose planes are chans (PackSigns order, h×w, nil
// when absent) into sample rows sgn, channel k of pixel (x, y) at bit
// bit0 + y·rowBits + x·c + k. It reports false, having done nothing,
// for a width the kernel does not take (not a multiple of 8, or over
// 256).
func placeSignsSIMD(sgn []uint64, chans *[32][]byte, n, h, w, rowBits, bit0, c int) bool {
	if w%8 != 0 || w > 256 || n > 32 {
		return false
	}
	if last := (bit0 + (h-1)*rowBits + (w-1)*c + 63) / 64; last >= len(sgn) {
		panic(fmt.Sprintf("bnn: placing %d channels of %d×%d from bit %d into %d words", n, h, w, bit0, len(sgn)))
	}
	var ptrs [32]*byte
	for k, m := range chans[:n] {
		if m != nil {
			if len(m) < h*w/8 {
				panic(fmt.Sprintf("bnn: placing a %d-byte plane as %d×%d", len(m), h, w))
			}
			ptrs[k] = &m[0]
		}
	}
	var st [32 * 32]byte
	placeSignsAMD64(&sgn[0], &ptrs[0], n, h, w, rowBits, bit0, c, &st[0])
	return true
}
