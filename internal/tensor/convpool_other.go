//go:build !amd64

package tensor

// The SIMD entry points are unreachable without SIMD kernels (see
// gemm_other.go) but the dispatch still links them.

func convSign3x3SIMD(dst []float32, ds int, w, src []float32, ch, plane, wp, rows, f0, f1 int) {
	convSign3x3Go(dst, ds, w, src, ch, plane, wp, rows, f0, f1)
}

func poolAffineSignRowSIMD(dst, r0, r1, r2 []float32, scale, shift float32) int { return 0 }
