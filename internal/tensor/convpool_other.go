//go:build !amd64

package tensor

// The SIMD entry points are unreachable without SIMD kernels (see
// gemm_other.go) but the dispatch still links them.

func convSign3x3SIMD(dst []float32, ds int, w, src []float32, ch, plane, wp, rows, f0, f1 int) {
	convSign3x3Go(dst, ds, w, src, ch, plane, wp, rows, f0, f1)
}

func poolAffineSignRowSIMD(dst, r0, r1, r2 []float32, scale, shift float32) int { return 0 }

func poolThresholdRowsSIMD(r0, r1, r2 []float32, step, p, k int, s, t float32) uint64 { return 0 }

func convFrameSIMD(dst []int16, ds int, w []int8, src []byte, ch, plane, wp, rows, filters int) int {
	return 0
}

func poolFrameSIMD(dst []byte, off int, rec []int16, w, prows int, s, t1 int16) bool { return false }
