//go:build !amd64

package tensor

// The SIMD entry points are unreachable without SIMD kernels (see
// gemm_other.go) but the dispatch still links them.

func convFrameSIMD(dst []int16, ds, rs int, taps *FrameTaps, frames []byte, h, w int, table []uint64) bool {
	return false
}

func poolFrameSIMD(dst []byte, off int, rec []int16, w, prows int, s, t1 int16) bool { return false }
