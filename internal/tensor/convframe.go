package tensor

import (
	"encoding/binary"
	"fmt"
)

// This file holds the two kernels of the integer ConvP block on byte
// frames (bnn.ConvP.ForwardFrames): a 3×3 stride-1 ±1 convolution over
// a zero-padded band of bytes that writes int16 sums, and the 3×3
// stride-2 max pool that ends in an integer threshold and returns the
// output signs as bits. Every sum is an exact integer — at most
// 9·ch·255 in magnitude, which fits int16 for ch ≤ FrameMaxChannels —
// so the paths agree by construction. The go path (and naive, which
// has no kernel of its own) runs them in scalar code, simd in AVX2.
//
// The convolution writes each output row split by column parity, the
// layout the stride-2 pool reads: a row record of FrameRowLen(w) int16
// holds column −1 (pool padding, never written here) at 0, the odd
// columns 1, 3, … from 1 and the even columns 0, 2, … from
// 1+FrameHalfWidth(w). A pooled output px then reads the even column 2px
// and the odd columns 2px−1 and 2px+1 at record indices 1+half+px, px and
// px+1 of its three rows.

// FrameMaxChannels is the largest channel count whose convolution sums,
// up to 9·255 per channel, fit int16.
const FrameMaxChannels = 14

// frameTile is the number of consecutive columns the simd convolution
// tile computes: 16 even and 16 odd ones.
const frameTile = 32

// FrameHalfWidth returns how many even (and odd) columns a row record
// of a w-wide image holds: w/2 rounded up to whole simd tiles.
func FrameHalfWidth(w int) int { return (w + frameTile - 1) / frameTile * frameTile / 2 }

// FrameRowLen returns the length of one row record: column −1, then the
// odd and the even columns.
func FrameRowLen(w int) int { return 1 + 2*FrameHalfWidth(w) }

// FrameBandSlack is how many bytes past the last padded row of the
// last channel ConvFrame3x3 may read; their values only reach columns
// at or past w, which the pool never reads.
const FrameBandSlack = frameTile + 8

// FrameWeights returns the convolution's weight table for filters of
// ch input channels: ±1 weights w[f][c][ky][kx] (exactly +1 or −1, as
// bnn.Binarize produces) become, per filter, channel and kernel row,
// eight signed bytes: w0, w1, w0, w1 and then w2, 0, w2, 0 — the byte
// pairs the simd kernel multiplies adjacent frame bytes by. dst is
// reused when it has room.
func FrameWeights(dst []int8, w []float32, filters, ch int) []int8 {
	n := filters * ch * 3 * 8
	if cap(dst) < n {
		dst = make([]int8, n)
	}
	dst = dst[:n]
	sign := func(v float32) int8 {
		if v > 0 {
			return 1
		}
		return -1
	}
	for r := 0; r < filters*ch*3; r++ {
		w0, w1, w2 := sign(w[3*r]), sign(w[3*r+1]), sign(w[3*r+2])
		copy(dst[8*r:8*r+8], []int8{w0, w1, w0, w1, w2, 0, w2, 0})
	}
	return dst
}

// ConvFrame3x3 computes the 3×3, stride-1, ±1 convolution of every
// filter of w, FrameWeights' table, over a zero-padded band of frame
// bytes. src holds ch planes of plane bytes, each rows+2 rows of wp =
// w+2 bytes (plane = (rows+2)·wp) whose first and last column and first
// and last row are zero, followed by FrameBandSlack readable bytes. For
// output row oy < rows and column ox < w the sum
//
//	Σ_{c,ky,kx} w[f][c][ky][kx] · src[c*plane + (oy+ky)*wp + ox + kx]
//
// goes to dst[f*ds + (oy+1)*FrameRowLen(w) + …], at the record index of
// column ox's parity (see the file comment); record 0 of each filter
// (row −1) is not written. Other record entries past column w may be
// written with values the caller must ignore.
func ConvFrame3x3(path KernelPath, dst []int16, ds int, w []int8, src []byte, ch, plane, wp int) {
	iw, rs := wp-2, FrameRowLen(wp-2)
	rows, filters := plane/wp-2, len(w)/(ch*24)
	if ch > FrameMaxChannels || rows < 0 || plane != (rows+2)*wp || len(w) != filters*ch*24 ||
		len(dst) < (filters-1)*ds+(rows+1)*rs || len(src) < ch*plane+FrameBandSlack {
		panic(fmt.Sprintf("tensor: ConvFrame3x3 ch=%d plane=%d wp=%d: slices %d,%d,%d do not fit",
			ch, plane, wp, len(dst), len(w), len(src)))
	}
	f := 0
	if path == KernelSIMD {
		f = convFrameSIMD(dst, ds, w, src, ch, plane, wp, rows, filters)
	}
	half := FrameHalfWidth(iw)
	for ; f < filters; f++ {
		wf := w[f*ch*24 : (f+1)*ch*24]
		for oy := 0; oy < rows; oy++ {
			rec := dst[f*ds+(oy+1)*rs : f*ds+(oy+2)*rs]
			for x0 := 0; x0 < iw; x0 += 8 {
				e, o := convFrame8(wf, src[oy*wp+x0:], ch, plane, wp)
				for i := 0; i < 4; i++ {
					rec[1+half+x0/2+i] = int16(uint16(e>>(16*i)) - frameBias)
					rec[1+x0/2+i] = int16(uint16(o>>(16*i)) - frameBias)
				}
			}
		}
	}
}

// frameBias offsets every 16-bit lane of convFrame8's accumulators so
// that no partial sum, at most 9·FrameMaxChannels·255 in magnitude,
// borrows from or carries into its neighbour.
const (
	frameBias  = 1 << 15
	frameBias4 = frameBias * 0x0001_0001_0001_0001
	frameLanes = 0x00FF_00FF_00FF_00FF
)

// convFrame8 computes one filter over eight consecutive columns in
// four 16-bit lanes per uint64: e holds the even columns 0, 2, 4, 6 of
// the run and o the odd ones, each lane biased by frameBias. src starts
// at the run's first padded column in channel 0's top kernel row. The
// eight bytes from a column split into its even and odd columns, so a
// kernel row is two loads; each tap adds or subtracts a lane vector.
func convFrame8(wf []int8, src []byte, ch, plane, wp int) (e, o uint64) {
	e, o = frameBias4, frameBias4
	for c := 0; c < ch; c++ {
		for ky := 0; ky < 3; ky++ {
			row := src[c*plane+ky*wp:]
			x0 := binary.LittleEndian.Uint64(row)
			x2 := binary.LittleEndian.Uint64(row[2:])
			e0, o0 := x0&frameLanes, x0>>8&frameLanes
			e2, o2 := x2&frameLanes, x2>>8&frameLanes
			t := wf[(c*3+ky)*8:][:5]
			e, o = frameTap(t[0], e, o, e0, o0)
			e, o = frameTap(t[1], e, o, o0, e2)
			e, o = frameTap(t[4], e, o, e2, o2)
		}
	}
	return e, o
}

// frameTap is one ±1 tap on both lane vectors.
func frameTap(w int8, e, o, ve, vo uint64) (uint64, uint64) {
	if w > 0 {
		return e + ve, o + vo
	}
	return e - ve, o - vo
}

// PoolFrameThreshold pools one filter's convolution records into sign
// bits: pooled row j < prows reads the records rec[2j*rs:],
// rec[(2j+1)*rs:] and rec[(2j+2)*rs:] — rows 2j−1, 2j and 2j+1 of a run
// of records that starts at row −1 — with rs = FrameRowLen(w), w even.
// Output px < w/2 of row j is the maximum m over its window's three
// columns in those three rows, and bit off + j·w/2 + px of dst is set
// when s·m > t1 (s = ±1; the other bits are left alone). Every window
// must hold a column the convolution wrote: the caller pads column −1
// and row −1 with −32768.
func PoolFrameThreshold(path KernelPath, dst []byte, off int, rec []int16, w, prows int, s, t1 int16) {
	rs, half, pw := FrameRowLen(w), FrameHalfWidth(w), w/2
	if w%2 != 0 || len(rec) < 2*prows*rs+rs || len(dst)*8 < off+prows*pw {
		panic(fmt.Sprintf("tensor: PoolFrameThreshold w=%d: %d records of %d for %d pooled rows, %d bytes from bit %d", w, len(rec)/rs, rs, prows, len(dst), off))
	}
	if path == KernelSIMD && poolFrameSIMD(dst, off, rec, w, prows, s, t1) {
		return
	}
	for j := 0; j < prows; j++ {
		r0, r1, r2 := rec[2*j*rs:][:rs], rec[(2*j+1)*rs:][:rs], rec[(2*j+2)*rs:][:rs]
		for px0 := 0; px0 < pw; px0 += 64 {
			k := min(64, pw-px0)
			var bits uint64
			for i := 0; i < k; i++ {
				px := px0 + i
				m := max(r0[1+half+px], r0[px], r0[px+1],
					r1[1+half+px], r1[px], r1[px+1],
					r2[1+half+px], r2[px], r2[px+1])
				if s*m > t1 {
					bits |= 1 << uint(i)
				}
			}
			OrBits(dst, off+j*pw+px0, bits, k)
		}
	}
}

// OrBits ors the k low bits of v into dst from bit off on, bit i of a
// byte being element 8·byte+i (PackSigns order). The bits of v at and
// above k must be zero: they are not masked off.
func OrBits(dst []byte, off int, v uint64, k int) {
	for k > 0 {
		q, r := off/8, off%8
		dst[q] |= byte(v << uint(r))
		n := min(k, 8-r)
		v >>= uint(n)
		off += n
		k -= n
	}
}
