package tensor

import "unsafe"

// frameStripAVX2 (convpool_amd64.s) writes a strip's row-sum table for
// every channel: a zero row when top is 1, rows frame rows from frames
// on, a zero row when bottom is 1.
//
//go:noescape
func frameStripAVX2(tab *int16, frames *byte, ch, plane, w, top, rows, bottom, runLen int)

// convFrameSumsAVX2 (convpool_amd64.s) adds up a strip's sums from its
// row-sum table into the row records: one filter, eight rows and one run
// of 32 columns at a time.
//
//go:noescape
func convFrameSumsAVX2(rec *int16, ds, rs, half int, tab *int16, runLen, rows, runs, terms, filters int, taps *int32)

// poolFrameKernel16 (convpool_amd64.s) computes one 16-output group of
// PoolFrameThreshold for rows pooled rows, oring one uint16 of bits per
// row into out.
//
//go:noescape
func poolFrameKernel16(rec *int16, rs, half, rows int, s, t1 int16, out *uint16)

// convFrameSIMD runs ConvFrame3x3 on the AVX2 kernels, strip by strip;
// their table holds the sums themselves.
func convFrameSIMD(dst []int16, ds, rs int, taps *FrameTaps, frames []byte, h, w int, table []uint64) bool {
	half := FrameHalfWidth(w)
	runLen := taps.ch * frameChanLen
	tab := (*int16)(unsafe.Pointer(&table[0]))
	for y0 := 0; y0 < h; y0 += frameStrip {
		n := min(frameStrip, h-y0)
		lo, hi := max(y0-1, 0), min(y0+n, h-1) // the frame rows the strip reads
		frameStripAVX2(tab, &frames[lo*w], taps.ch, h*w, w, lo-(y0-1), hi-lo+1, y0+n-hi, runLen)
		convFrameSumsAVX2(&dst[(y0+1)*rs+1], ds, rs, half, tab, runLen, n, half/16, 3*taps.ch, taps.filters, &taps.off[0])
	}
	return true
}

// poolFrameSIMD runs PoolFrameThreshold's groups of 16 outputs on the
// AVX2 kernel and keeps each row's bits below (w+1)/2. Rows of exactly
// one group from a byte boundary (the device geometry's) are consecutive
// uint16s of dst, which the kernel ors into in place. Otherwise it takes
// up to 64 pooled rows a call into a scratch: a full group that starts
// on a byte boundary is ored in as two bytes; rows of at most one group,
// whose bits are consecutive, are ored in up to 64 bits at a time.
func poolFrameSIMD(dst []byte, off int, rec []int16, w, prows int, s, t1 int16) bool {
	rs, half, pw := FrameRowLen(w), FrameHalfWidth(w), (w+1)/2
	if pw == 16 && off%8 == 0 {
		poolFrameKernel16(&rec[0], rs, half, prows, s, t1, (*uint16)(unsafe.Pointer(&dst[off/8])))
		return true
	}
	var out [64]uint16
	for j0 := 0; j0 < prows; j0 += len(out) {
		n := min(len(out), prows-j0)
		for px0 := 0; px0 < pw; px0 += 16 {
			k := min(16, pw-px0)
			clear(out[:n])
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
