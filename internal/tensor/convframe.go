package tensor

import (
	"encoding/binary"
	"fmt"
)

// This file holds the integer kernels of the serving ConvP blocks: a
// 3×3 stride-1 ±1 convolution of byte frames that writes int16 sums (the
// device block, bnn.ConvP.ForwardFrames), and the 3×3 stride-2 max pool
// that ends in an integer threshold and returns the output signs as
// bits — the epilogue of the device block and of the bit-plane block
// (bnn.ConvP.ForwardPacked), whose XNOR counts it reads in the same
// records. Every sum is an exact integer — at most 9·ch·255 in magnitude
// for frames, which fits int16 for ch ≤ FrameMaxChannels — so the paths
// agree by construction. The go path (and naive, which has no kernel of
// its own) runs them in scalar code, simd in AVX2.
//
// The convolution writes each output row split by column parity, the
// layout the stride-2 pool reads: a row record of FrameRowLen(w) int16
// holds column −1 (pool padding, never written here) at 0, the odd
// columns 1, 3, … from 1 and the even columns 0, 2, … from
// 1+FrameHalfWidth(w). A pooled output px then reads the even column 2px
// and the odd columns 2px−1 and 2px+1 at record indices 1+half+px, px and
// px+1 of its three rows.
//
// With ±1 weights a kernel row's term over the bytes a, b, c of columns
// x−1, x, x+1 is plus or minus one of four sums: a+b+c, a+b−c, a−b+c or
// −a+b+c. The convolution first builds, for every frame row of every
// channel, all four for every column (the row-sum table), and then adds
// or subtracts for each filter and output row the 3·ch table rows its
// weights name, which every filter and all three output rows that read a
// frame row share. The table reads the frame bytes where they lie: the
// zero padding left and right comes from shifting a run of columns by
// one, and rows −1 and h are a row of zero sums, so no byte outside the
// frames is read. It is built and read a strip of frameStrip output rows
// at a time, so that it stays in cache.

// FrameMaxChannels is the largest channel count whose convolution sums,
// up to 9·255 per channel, fit int16.
const FrameMaxChannels = 14

// frameTile is the number of consecutive columns one run of the row-sum
// table covers: 16 odd and 16 even ones.
const frameTile = 32

// FrameHalfWidth returns how many even (and odd) columns a row record
// of a w-wide image holds: w/2 rounded up to whole table runs.
func FrameHalfWidth(w int) int { return (w + frameTile - 1) / frameTile * frameTile / 2 }

// FrameRowLen returns the length of one row record: column −1, then the
// odd and the even columns.
func FrameRowLen(w int) int { return 1 + 2*FrameHalfWidth(w) }

// The row-sum table holds one strip: the frameStrip+2 frame rows its
// output rows read, the first being the row above the strip. It is laid
// out by run of frameTile columns, channel, sum and row: each row of a
// sum is a run's 16 odd columns' int16 and then its 16 even columns', 64
// bytes, so a filter's term for the strip's first output row is one
// table offset from its run, and the next rows' lie 64 bytes apart.
const (
	frameStrip   = 16
	frameSums    = 4
	frameRowSize = 64                              // bytes of one run of one sum row
	frameSumLen  = (frameStrip + 2) * frameRowSize // bytes of one sum of a strip
	frameChanLen = frameSums * frameSumLen         // bytes of one channel's sums
)

// frameSumOf maps a kernel row's weights (w0, w1, w2), as the bits
// w0<0, w1<0, w2<0 from high to low, to its sum — 0–3 for a+b+c, a+b−c,
// a−b+c and −a+b+c — which the term subtracts when two or more weights
// are −1.
var frameSumOf = [8]int32{0, 1, 2, 3, 3, 2, 1, 0}

// FrameTableLen returns the words of the row-sum table scratch that
// ConvFrame3x3 needs for ch channels of w-wide frames.
func FrameTableLen(ch, w int) int { return FrameHalfWidth(w) / 16 * ch * frameChanLen / 8 }

// FrameTaps is ConvFrame3x3's view of ±1 filters: for each filter, the
// number of terms it adds, then the row-sum table offsets of the terms,
// for the strip's first output row, of its channels and kernel rows — the
// ones it adds first, then the ones it subtracts.
type FrameTaps struct {
	filters, ch int
	off         []int32 // [filter][1 + 3·ch]
}

// Set derives the taps of filters ±1 filters of ch input channels,
// w[f][c][ky][kx] exactly +1 or −1 (as bnn.Binarize produces), reusing
// the taps' storage.
func (t *FrameTaps) Set(w []float32, filters, ch int) {
	n := 1 + 3*ch
	if cap(t.off) < filters*n {
		t.off = make([]int32, filters*n)
	}
	t.filters, t.ch, t.off = filters, ch, t.off[:filters*n]
	for f := 0; f < filters; f++ {
		taps := t.off[f*n : (f+1)*n]
		add, sub := 1, n
		for r := 0; r < 3*ch; r++ {
			var bits, neg int
			for _, v := range w[3*(f*3*ch+r):][:3] {
				bits <<= 1
				if v < 0 {
					bits |= 1
					neg++
				}
			}
			off := int32(r/3*frameChanLen+r%3*frameRowSize) + frameSumOf[bits]*frameSumLen
			if neg < 2 {
				taps[add] = off
				add++
			} else {
				sub--
				taps[sub] = off
			}
		}
		taps[0] = int32(add - 1)
	}
}

// ConvFrame3x3 computes the 3×3, stride-1, zero-padded ±1 convolution of
// every filter of taps over ch = taps' channels planes of h×w frame
// bytes, frames[(c·h+y)·w+x]. For output row oy < h and column ox < w
// the sum
//
//	Σ_{c,ky,kx} w[f][c][ky][kx] · frames[c, oy+ky−1, ox+kx−1]
//
// (bytes outside the frame count as zero) goes to dst[f*ds +
// (oy+1)*FrameRowLen(w) + …], at the record index of column ox's parity
// (see the file comment); record 0 of each filter (row −1) and every
// record's column −1 are not written. Other record entries past column w
// may be written with values the caller must ignore. table is scratch of
// at least FrameTableLen(ch, w) words. No byte outside frames is read.
func ConvFrame3x3(path KernelPath, dst []int16, ds int, taps *FrameTaps, frames []byte, h, w int, table []uint64) {
	ch, filters, rs := taps.ch, taps.filters, FrameRowLen(w)
	if ch > FrameMaxChannels || h < 0 || w < 1 || filters < 1 || len(frames) != ch*h*w ||
		len(dst) < (filters-1)*ds+(h+1)*rs || len(table) < FrameTableLen(ch, w) {
		panic(fmt.Sprintf("tensor: ConvFrame3x3 ch=%d h=%d w=%d filters=%d: slices %d,%d,%d do not fit",
			ch, h, w, filters, len(dst), len(frames), len(table)))
	}
	if path == KernelSIMD && convFrameSIMD(dst, ds, rs, taps, frames, h, w, table) {
		return
	}
	convFrameGo(dst, ds, rs, taps, frames, h, w, table)
}

// The portable twin keeps four int16 columns to a uint64 and adds whole
// words: its table holds every sum plus frameTableBias, 0 … 2·765. A
// filter's accumulator starts at 2·765 per term it subtracts, so that
// adding its terms first and then subtracting stays within 0 … 2·765·3·ch
// ≤ 64 260 per lane and never carries into the next or borrows from it;
// the record takes the lane less 765·3·ch.
const (
	frameTableBias = 3 * 255
	frameLanes     = 0x00FF_00FF_00FF_00FF
	frameOnes      = 0x0001_0001_0001_0001
	frameBias4     = frameTableBias * frameOnes
)

// convFrameGo is the portable row-sum table convolution, strip by strip
// as the simd kernel.
func convFrameGo(dst []int16, ds, rs int, taps *FrameTaps, frames []byte, h, w int, table []uint64) {
	ch, half := taps.ch, FrameHalfWidth(w)
	runLen := ch * frameChanLen / 8 // words of one run's sums
	bias := uint16(3 * ch * frameTableBias)
	for y0 := 0; y0 < h; y0 += frameStrip {
		n := min(frameStrip, h-y0)
		for c := 0; c < ch; c++ {
			for l := 0; l < n+2; l++ {
				t := table[(c*frameChanLen+l*frameRowSize)/8:]
				if y := y0 - 1 + l; y >= 0 && y < h {
					frameTableRowGo(t, runLen, frames[(c*h+y)*w:][:w])
					continue
				}
				for q := 0; q < half/16; q++ {
					for p := 0; p < frameSums; p++ {
						row := t[q*runLen+p*frameSumLen/8:][:8]
						for i := range row {
							row[i] = frameBias4
						}
					}
				}
			}
		}
		for f := 0; f < taps.filters; f++ {
			offs := taps.off[f*(1+3*ch) : (f+1)*(1+3*ch)]
			add, sub := offs[1:1+offs[0]], offs[1+offs[0]:]
			for r := 0; r < n; r++ {
				for q := 0; q < half/16; q++ {
					var acc [8]uint64
					for i := range acc {
						acc[i] = uint64(len(sub)) * 2 * frameBias4
					}
					for _, off := range add {
						t := table[q*runLen+(int(off)+r*frameRowSize)/8:][:8]
						for i := range acc {
							acc[i] += t[i]
						}
					}
					for _, off := range sub {
						t := table[q*runLen+(int(off)+r*frameRowSize)/8:][:8]
						for i := range acc {
							acc[i] -= t[i]
						}
					}
					rec := dst[f*ds+(y0+r+1)*rs+1+q*16:][:half+16]
					for i := 0; i < 16; i++ {
						rec[i] = int16(uint16(acc[i/4]>>(16*(i%4))) - bias)
						rec[half+i] = int16(uint16(acc[4+i/4]>>(16*(i%4))) - bias)
					}
				}
			}
		}
	}
}

// frameTableRowGo writes the biased sums of one frame row's columns, eight
// at a time, to the table: t is the row's place in its channel's first
// run and runs lie runLen words apart.
func frameTableRowGo(t []uint64, runLen int, row []byte) {
	w := len(row)
	var prev uint64 // byte x0−1: zero at the left edge
	for x0 := 0; x0 < w; x0 += 8 {
		var x, next uint64
		if x0+8 <= w {
			x = binary.LittleEndian.Uint64(row[x0:])
		} else {
			for i, b := range row[x0:] {
				x |= uint64(b) << (8 * i)
			}
		}
		if x0+8 < w {
			next = uint64(row[x0+8])
		}
		e, o := x&frameLanes, x>>8&frameLanes // columns x0+2i and x0+2i+1
		s := t[x0/frameTile*runLen+x0%frameTile/8:]
		frameSumsGo(s[4:], o<<16|prev, e, o) // even columns: bytes 2i−1, 2i, 2i+1
		frameSumsGo(s, e, o, e>>16|next<<48) // odd columns: bytes 2i, 2i+1, 2i+2
		prev = o >> 48
	}
}

// frameSumsGo stores the four biased sums of four columns whose bytes
// x−1, x, x+1 are the lanes of a, b and c, one sum every frameSumLen
// bytes. Every step stays within 0 … 2·frameTableBias, so no lane borrows
// or carries.
func frameSumsGo(t []uint64, a, b, c uint64) {
	const n = frameSumLen / 8
	t = t[:3*n+1]
	ab := a + b + frameBias4
	kc := c + frameBias4
	t[0], t[n], t[2*n], t[3*n] = ab+c, ab-c, kc+a-b, kc+b-a
}

// PoolFrameThreshold pools one filter's convolution records into sign
// bits: pooled row j < prows reads the records rec[2j*rs:],
// rec[(2j+1)*rs:] and rec[(2j+2)*rs:] — rows 2j−1, 2j and 2j+1 of a run
// of records that starts at row −1 — with rs = FrameRowLen(w). Output
// px < (w+1)/2 of row j is the maximum m over its window's three
// columns in those three rows, and bit off + j·(w+1)/2 + px of dst is set
// when s·m > t1 (s = ±1; the other bits are left alone). Every window
// must hold a column the convolution wrote, and the caller pads what
// lies outside the image with −32768: row −1, every row's column −1, for
// an odd w column w's odd slot (record index 1+(w−1)/2), and for an odd
// image height the row below it.
func PoolFrameThreshold(path KernelPath, dst []byte, off int, rec []int16, w, prows int, s, t1 int16) {
	rs, half, pw := FrameRowLen(w), FrameHalfWidth(w), (w+1)/2
	if w < 1 || len(rec) < 2*prows*rs+rs || len(dst)*8 < off+prows*pw {
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
	if q := off / 8; off%8 == 0 && k == 64 && q+8 <= len(dst) {
		binary.LittleEndian.PutUint64(dst[q:], binary.LittleEndian.Uint64(dst[q:])|v)
		return
	}
	for k > 0 {
		q, r := off/8, off%8
		dst[q] |= byte(v << uint(r))
		n := min(k, 8-r)
		v >>= uint(n)
		off += n
		k -= n
	}
}
