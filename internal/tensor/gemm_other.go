//go:build !amd64

package tensor

// gemmSIMD is unreachable on architectures without SIMD kernels —
// KernelSIMD cannot be selected when hasSIMD is false — but the
// dispatch table still links it, so fall through to the portable
// blocked kernel.
func gemmSIMD(c, a, b []float32, i0, i1, k, n int) {
	matmulBlocked(c, a, b, i0, i1, k, n)
}
