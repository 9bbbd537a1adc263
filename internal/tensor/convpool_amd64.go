package tensor

// convSignKernel4x16 (convpool_amd64.s) computes a 4-filter × 16-position
// tile of ConvSign3x3 from zero: dst rows are ds floats apart, w rows
// ch*9 floats apart, and src points at the tile's first flat position
// in channel 0 of the band.
//
//go:noescape
func convSignKernel4x16(dst *float32, ds int, w, src *float32, ch, plane, wp int)

// poolAffineSignKernel4 (convpool_amd64.s) computes quads×4 outputs of
// PoolAffineSignRow, reading 2·4·quads+1 floats of each row.
//
//go:noescape
func poolAffineSignKernel4(dst, r0, r1, r2 *float32, quads int, scale, shift float32)

// poolThresholdKernel4 (convpool_amd64.s) computes rows pooled rows of
// quads×4 outputs of PoolThresholdRows as bits; step is in bytes.
//
//go:noescape
func poolThresholdKernel4(r0, r1, r2 *float32, step, rows, quads int, s, t float32) uint64

// convSign3x3SIMD tiles filters by 4 and positions by 16 over the
// AVX2+FMA micro-kernel; a tail of fewer than 4 filters goes to the portable
// kernel, which accumulates in the same order.
func convSign3x3SIMD(dst []float32, ds int, w, src []float32, ch, plane, wp, rows, f0, f1 int) {
	k := ch * 9
	runs, runLen, runStride := convTiling(rows, wp, convSignLanes)
	f := f0
	for ; f+4 <= f1; f += 4 {
		for r := 0; r < runs; r++ {
			for j := r * runStride; j < r*runStride+runLen; j += convSignLanes {
				convSignKernel4x16(&dst[f*ds+j], ds, &w[f*k], &src[j], ch, plane, wp)
			}
		}
	}
	convSign3x3Go(dst, ds, w, src, ch, plane, wp, rows, f, f1)
}

// poolAffineSignRowSIMD handles the leading multiple of 4 outputs and
// returns how many it wrote.
func poolAffineSignRowSIMD(dst, r0, r1, r2 []float32, scale, shift float32) int {
	quads := len(dst) / 4
	if quads > 0 {
		poolAffineSignKernel4(&dst[0], &r0[0], &r1[0], &r2[0], quads, scale, shift)
	}
	return quads * 4
}

// poolThresholdRowsSIMD runs the AVX2 kernel; the caller keeps k a
// multiple of 4.
func poolThresholdRowsSIMD(r0, r1, r2 []float32, step, p, k int, s, t float32) uint64 {
	return poolThresholdKernel4(&r0[0], &r1[0], &r2[0], 4*step, p, k/4, s, t)
}
