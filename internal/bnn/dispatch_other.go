//go:build !amd64

package bnn

// The SIMD entry points are unreachable on architectures without SIMD
// kernels — tensor.KernelSIMD cannot be selected there — but the
// dispatch switches still link them, so fall through to the portable
// optimized kernels.

func xnorHammingSIMD(aw, bw []uint64) int { return xnorHammingWords(aw, bw) }

func packSignsSIMD(dst []byte, src []float32) { packSignsUnrolled(dst, src, 0) }

func packWordsSIMD(words []uint64, v []float32) { packWordsGo(words, v) }

func xnorRowSIMD(out []float32, cs int, win []uint64, w, segw, rs, groups int, wts []uint64) {
	kw := 3 * segw
	for f := 0; f < 4*groups; f++ {
		xnorRowN(out[f*cs:][:w], win, rs, segw, wts[f/4*kw*4+f%4:])
	}
}
