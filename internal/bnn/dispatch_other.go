//go:build !amd64

package bnn

// The SIMD entry points are unreachable on architectures without SIMD
// kernels — tensor.KernelSIMD cannot be selected there — but the
// dispatch switches still link them, so fall through to the portable
// optimized kernels.

func xnorHammingSIMD(aw, bw []uint64) int { return xnorHammingWords(aw, bw) }

func packSignsSIMD(dst []byte, src []float32) { packSignsUnrolled(dst, src, 0) }

func packWordsSIMD(words []uint64, v []float32) { packWordsGo(words, v) }

func xnorSweepSIMD(out []int16, ds int, win []uint64, n, ww, pairs int, wts []uint64) {
	xnorSweep(out, ds, win, n, ww, 0, 8*pairs, wts)
}

func (wl xnorWindow) segmentsSIMD(seg, sgn, nz []uint64, c, w, rows, rsw int) {
	wl.segments(seg, sgn, nz, c, w, rows, rsw)
}

func (wl xnorWindow) assembleSIMD(win, seg []uint64, w int, tails *windowTails) {
	wl.assemble(win, seg, w, tails)
}

func placeSignsSIMD(sgn []uint64, chans *[32][]byte, n, h, w, rowBits, bit0, c int) bool {
	return false
}
