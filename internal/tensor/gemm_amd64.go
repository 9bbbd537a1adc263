package tensor

// gemmKernel4x16 (gemm_amd64.s) accumulates a 4-row × 16-column tile of
// C over the full shared dimension k: C has row stride n floats, A row
// stride k floats, B row stride n floats. AVX2 without FMA; the
// per-element operation sequence equals the scalar kernels', so results
// are bit-identical.
//
//go:noescape
func gemmKernel4x16(c, a, b *float32, k, n int)

// gemmSIMD computes C rows [i0,i1) with the AVX2 4x16 micro-kernel,
// handing row tails (fewer than 4 rows) and column tails (fewer than 16
// columns) to the scalar kernels. Every element still accumulates in
// ascending shared-dimension order, so the result is bit-identical to
// matmulRows.
func gemmSIMD(c, a, b []float32, i0, i1, k, n int) {
	if k == 0 || n == 0 {
		return
	}
	if n < 16 {
		matmulBlocked(c, a, b, i0, i1, k, n)
		return
	}
	i := i0
	for ; i+4 <= i1; i += 4 {
		j := 0
		for ; j+16 <= n; j += 16 {
			gemmKernel4x16(&c[i*n+j], &a[i*k], &b[j], k, n)
		}
		if j < n {
			gemmColsTail(c, a, b, i, i+4, j, k, n)
		}
	}
	matmulRows(c, a, b, i, i1, k, n)
}

// gemmColsTail finishes columns [j0,n) of C rows [r0,r1) element by
// element in ascending shared-dimension order.
func gemmColsTail(c, a, b []float32, r0, r1, j0, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := j0; j < n; j++ {
			s := crow[j]
			bi := j
			for p := 0; p < k; p++ {
				s += arow[p] * b[bi]
				bi += n
			}
			crow[j] = s
		}
	}
}
