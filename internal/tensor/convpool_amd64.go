package tensor

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
// below (w+1)/2. A full group that starts on a byte boundary (every
// group of the device geometry) is ored in as two bytes; rows of at most
// one group, whose bits are consecutive, are ored in up to 64 bits at a
// time.
func poolFrameSIMD(dst []byte, off int, rec []int16, w, prows int, s, t1 int16) bool {
	rs, half, pw := FrameRowLen(w), FrameHalfWidth(w), (w+1)/2
	var out [64]uint16
	for j0 := 0; j0 < prows; j0 += len(out) {
		n := min(len(out), prows-j0)
		for px0 := 0; px0 < pw; px0 += 16 {
			k := min(16, pw-px0)
			poolFrameKernel16(&rec[2*j0*rs+px0], rs, half, n, s, t1, &out[0])
			if k == pw && k < 16 { // the row's only group: batch the rows' bits
				var acc uint64
				at, nb := off+j0*pw, 0
				for _, bits := range out[:n] {
					if nb+k > 64 {
						OrBits(dst, at, acc, nb)
						at, acc, nb = at+nb, 0, 0
					}
					acc |= uint64(bits) & (1<<k - 1) << nb
					nb += k
				}
				OrBits(dst, at, acc, nb)
				continue
			}
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
