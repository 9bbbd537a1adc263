package bnn

import (
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

// xnorRowAVX2 (xnor_amd64.s) sweeps groups×4 filters over one output row
// of w windows read from the band's row segments; see xnorConv3x3.
//
//go:noescape
func xnorRowAVX2(out *float32, cs int, win *uint64, w, segw, rs, groups int, wts *uint64)

// xnorRowSIMD runs the AVX2 sweep: out starts at the first filter's
// output row, win at the row's segments, wts at its group's words. The
// caller keeps 3·segw ≤ 31.
func xnorRowSIMD(out []float32, cs int, win []uint64, w, segw, rs, groups int, wts []uint64) {
	if w > 0 {
		xnorRowAVX2(&out[0], cs, &win[0], w, segw, rs, groups, &wts[0])
	}
}
