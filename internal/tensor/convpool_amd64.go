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

// convFrameKernel4x32 (convpool_amd64.s) computes four filters × 32
// columns of one row of ConvFrame3x3: odd columns to dst, even ones to
// dst+eoff, filters ds int16 apart.
//
//go:noescape
func convFrameKernel4x32(dst *int16, ds, eoff int, w *int8, ws int, src *byte, ch, plane, wp int)

// poolFrameKernel16 (convpool_amd64.s) computes one 16-output group of
// PoolFrameThreshold for rows pooled rows, one uint16 of bits per row.
//
//go:noescape
func poolFrameKernel16(rec *int16, rs, half, rows int, s, t1 int16, out *uint16)

// convFrameSIMD tiles filters by 4 and each output row by 32 columns
// over the AVX2 kernel, and returns the first filter it left to the
// portable kernel (a tail of fewer than 4).
func convFrameSIMD(dst []int16, ds int, w []int8, src []byte, ch, plane, wp, rows, filters int) int {
	iw := wp - 2
	rs, half, ws := FrameRowLen(iw), FrameHalfWidth(iw), ch*24
	f := 0
	for ; f+4 <= filters; f += 4 {
		for oy := 0; oy < rows; oy++ {
			for x0 := 0; x0 < iw; x0 += frameTile {
				convFrameKernel4x32(&dst[f*ds+(oy+1)*rs+1+x0/2], ds, half, &w[f*ws], ws, &src[oy*wp+x0], ch, plane, wp)
			}
		}
	}
	return f
}

// poolFrameSIMD runs PoolFrameThreshold's groups of 16 outputs on the
// AVX2 kernel, up to 64 pooled rows a call, and keeps each row's bits
// below w/2. A full group that starts on a byte boundary (every group
// of the device geometry) is ored in as two bytes.
func poolFrameSIMD(dst []byte, off int, rec []int16, w, prows int, s, t1 int16) bool {
	rs, half, pw := FrameRowLen(w), FrameHalfWidth(w), w/2
	var out [64]uint16
	for j0 := 0; j0 < prows; j0 += len(out) {
		n := min(len(out), prows-j0)
		for px0 := 0; px0 < pw; px0 += 16 {
			k := min(16, pw-px0)
			poolFrameKernel16(&rec[2*j0*rs+px0], rs, half, n, s, t1, &out[0])
			for j, bits := range out[:n] {
				at := off + (j0+j)*pw + px0
				if k == 16 && at%8 == 0 {
					b := dst[at/8 : at/8+2]
					b[0] |= byte(bits)
					b[1] |= byte(bits >> 8)
					continue
				}
				OrBits(dst, at, uint64(bits)&(1<<k-1), k)
			}
		}
	}
	return true
}
