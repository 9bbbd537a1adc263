package bnn

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// This file is the bit-domain convolution of the fused ConvP pass. Above
// the devices a ConvP block's input is already ternary: ±1 feature maps,
// and zero channels where a device is absent. For x ∈ {−1, 0, +1} and
// weights w ∈ {−1, +1} every product is ±1 or 0, so a 3×3×C window sums
// to
//
//	Σ wᵢ·xᵢ = nz − 2·popcount((s ⊕ b) ∧ m)
//
// where m marks the window's nonzero inputs (nz = popcount(m)), s their
// signs and b the filter's signs. The float tile (tensor.ConvSign3x3)
// accumulates the same terms as exact integers — every partial sum is an
// integer of magnitude ≤ 9C, and it starts from +0, so it ends at the
// same value and never at −0 — so the two are bit-identical by
// construction.
//
// A band is packed into two bit planes, sign and nonzero, pixel-major:
// padded pixel x of band row t holds channels 0..C−1 at bits x·C..x·C+C−1
// of the row's bit string. A window's kernel row ky is then the 3C
// consecutive bits starting at ox·C of row oy+ky, read as segw words; the
// filters are packed the same way (BinaryConv2D.SyncWeights). The pack
// checks every value: only −1, +1 and ±0 (−0 counts as zero) are
// accepted, and a band holding anything else — a real-valued sensor
// frame, an averaged feature, NaN, ±Inf — runs the float tile instead, so
// every input keeps its float answer.

// oneBits is the IEEE-754 bit pattern of 1.0 shifted left by one: the
// magnitude bits of ±1 as packPixel compares them.
const oneBits = 0x3f800000 << 1

// xnorSegWords returns the words one kernel row of a window (3C bits)
// spans.
func xnorSegWords(c int) int { return (3*c + 63) / 64 }

// xnorRowWords returns the words of one padded band row's bit string: wp
// pixels of c bits, plus the two words a window read or a pixel store may
// touch past the last bit.
func xnorRowWords(c, wp int) int { return (wp*c+63)/64 + 2 }

// xnorScratchWords returns the words the XNOR path needs for a band of
// rows convolution rows w wide: the two bit planes, one output row's
// windows (per position, 3·segw sign/nonzero word pairs and the nonzero
// count) and one input row's channel-major masks (simd path).
func xnorScratchWords(c, w, rows int) int {
	return 2*(rows+2)*xnorRowWords(c, w+2) + w*(6*xnorSegWords(c)+1) + (2*(w/8)*c+7)/8
}

// xnorScratch is the XNOR path's view of a worker's band scratch.
type xnorScratch struct {
	sgn, nz []uint64 // the band's bit planes, rows of rsw words
	win     []uint64 // one output row's windows
	pos, m  []byte   // one input row's masks: byte g·c+ci = pixels 8g..8g+7 of channel ci
}

// newXnorScratch carves the XNOR scratch out of the float band buffer xb
// (planFused sizes xb for both uses).
func newXnorScratch(xb []float32, pl fusedPlan) xnorScratch {
	words := wordView(xb)
	planes := (pl.band + 2) * pl.rsw
	s := xnorScratch{sgn: words[:planes], nz: words[planes : 2*planes]}
	words = words[2*planes:]
	s.win, words = words[:pl.w*(6*xnorSegWords(pl.c)+1)], words[pl.w*(6*xnorSegWords(pl.c)+1):]
	if n := (pl.w / 8) * pl.c; n > 0 {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
		s.pos, s.m = b[:n], b[n:2*n]
	}
	return s
}

// packXnorFilters packs ±1 filters [f, c, 3, 3] in window order: a
// filter is kw = 3·segw words, kernel row ky at words ky·segw.., bit
// kx·c+ci set when w[f, ci, ky, kx] is +1. Filters are stored in groups of
// four with their words interleaved — word i of filter fi at
// ((fi/4)·kw + i)·4 + fi%4 — so the AVX2 sweep loads word i of four
// filters at once; a short last group is zero-filled. dst is reused when
// its length fits.
func packXnorFilters(dst []uint64, w []float32, f, c int) []uint64 {
	segw := xnorSegWords(c)
	kw := 3 * segw
	if n := (f + 3) / 4 * 4 * kw; len(dst) != n {
		dst = make([]uint64, n)
	} else {
		clear(dst)
	}
	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < c; ci++ {
			for k, v := range w[(fi*c+ci)*9 : (fi*c+ci+1)*9] {
				if v > 0 {
					ky, kx := k/3, k%3
					b := kx*c + ci
					dst[((fi/4)*kw+ky*segw+b/64)*4+fi%4] |= 1 << uint(b%64)
				}
			}
		}
	}
	return dst
}

// wordView reinterprets a float32 scratch buffer as uint64 words, skipping
// one float when the buffer does not start on an 8-byte boundary. Both
// element types are plain data, so the garbage collector is indifferent.
func wordView(f []float32) []uint64 {
	if len(f) < 2 {
		return nil
	}
	if uintptr(unsafe.Pointer(&f[0]))%8 != 0 {
		f = f[1:]
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&f[0])), len(f)/2)
}

// packTernaryBand packs input rows r0−1 .. r0+rows of every channel into
// the sign and nonzero bit planes (rows outside the image and the border
// columns stay zero) and reports whether every value was −1, ±0 or +1.
// It stops at the first row (simd path) or pixel (go path) holding
// another value: the band then runs the float tile. On the simd path the
// AVX2 kernel classifies whole 8-pixel groups of each channel row and
// scatterMasks transposes them into the planes; leftover columns, and the
// go path, gather one pixel's channels at a time (packPixel).
func packTernaryBand(path tensor.KernelPath, s xnorScratch, sample []float32, pl fusedPlan, r0, rows int) bool {
	n := (rows + 2) * pl.rsw
	clear(s.sgn[:n])
	clear(s.nz[:n])
	h, w, c := pl.h, pl.w, pl.c
	groups := 0
	if path == tensor.KernelSIMD {
		groups = w / 8
	}
	for t := 0; t < rows+2; t++ {
		iy := r0 - 1 + t
		if iy < 0 || iy >= h {
			continue
		}
		if groups > 0 {
			if !ternaryMasksSIMD(s.pos, s.m, sample[iy*w:], h*w, c, groups) {
				return false
			}
			scatterMasks(s, pl, t, groups)
		}
		for x := 8 * groups; x < w; x++ {
			for c0 := 0; c0 < c; c0 += 64 {
				if !packPixel(s.sgn, s.nz, sample, pl, t, iy, x, c0) {
					return false
				}
			}
		}
	}
	return true
}

// scatterMasks moves one input row's channel-major masks into band row t
// of the pixel-major planes, eight channels × eight pixels at a time.
func scatterMasks(s xnorScratch, pl fusedPlan, t, groups int) {
	c := pl.c
	for g := 0; g < groups; g++ {
		for c0 := 0; c0 < c; c0 += 8 {
			p := transpose8(gather8(s.pos[g*c+c0:], c-c0))
			m := transpose8(gather8(s.m[g*c+c0:], c-c0))
			// Byte i of p and m is pixel 8g+i's channels c0..c0+7.
			for i, b := 0, t*pl.rsw*64+(8*g+1)*c+c0; i < 8; i, b = i+1, b+c {
				q, r := b/64, uint(b%64)
				pi, mi := p>>(8*i)&0xff, m>>(8*i)&0xff
				s.sgn[q] |= pi << r
				s.sgn[q+1] |= pi >> (64 - r)
				s.nz[q] |= mi << r
				s.nz[q+1] |= mi >> (64 - r)
			}
		}
	}
}

// gather8 reads up to eight bytes little-endian, zero-filling past n.
func gather8(b []byte, n int) uint64 {
	if n >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var x uint64
	for k := 0; k < n; k++ {
		x |= uint64(b[k]) << (8 * k)
	}
	return x
}

// transpose8 transposes the 8×8 bit matrix whose row k is byte k of x.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// packPixel packs channels c0 .. c0+63 of pixel x of input row iy,
// gathered in registers, into the planes at bit (x+1)·c + c0 of band row
// t, and reports whether each was −1, ±0 or +1.
func packPixel(sgn, nz []uint64, sample []float32, pl fusedPlan, t, iy, x, c0 int) bool {
	h, w, c := pl.h, pl.w, pl.c
	var s, m, odd uint64
	for ci, k := 0, (c0*h+iy)*w+x; ci < min(64, c-c0); ci, k = ci+1, k+h*w {
		u := math.Float32bits(sample[k])
		a := u << 1
		nzb := uint64(a>>24) & 1
		odd |= uint64(a) ^ (-nzb & oneBits) // zero iff a is 0 or oneBits
		m |= nzb << uint(ci)
		s |= (nzb &^ uint64(u>>31)) << uint(ci)
	}
	b := t*pl.rsw*64 + (x+1)*c + c0
	q, r := b/64, uint(b%64)
	nz[q] |= m << r
	nz[q+1] |= m >> (64 - r)
	sgn[q] |= s << r
	sgn[q+1] |= s >> (64 - r)
	return odd == 0
}

// xnorConv3x3 writes the convolution of the packed band for filters
// [f0, f1) into conv exactly where tensor.ConvSign3x3 would: filter f's
// output row oy, column ox at conv[f*cs + oy*wp + ox]. It writes only the
// w image columns of each row; the caller overwrites the two that end it.
// Each output row's windows are extracted once into win, then swept by
// every filter: on the simd path the whole groups of four inside
// [f0, f1) by the AVX2 kernel, the rest one filter at a time.
func xnorConv3x3(path tensor.KernelPath, conv []float32, cs int, wts []uint64, s xnorScratch, pl fusedPlan, rows, f0, f1 int) {
	c, w, rsw := pl.c, pl.w, pl.rsw
	segw := xnorSegWords(c)
	kw := 3 * segw
	ws := 2*kw + 1
	last := ^uint64(0) >> uint((64-3*c%64)%64) // the 3C bits of a segment's last word
	sgn, nz, win := s.sgn, s.nz, s.win[:w*ws]
	lo, hi := f1, f1 // filters [lo, hi) go to the AVX2 sweep
	if path == tensor.KernelSIMD && kw <= 31 && (f0+3)/4 < f1/4 {
		lo, hi = (f0+3)/4*4, f1/4*4
	}
	for oy := 0; oy < rows; oy++ {
		for ox := 0; ox < w; ox++ {
			v := win[ox*ws : (ox+1)*ws : (ox+1)*ws]
			off := ox * c
			r, l := uint(off)&63, (63-uint(off))&63 // a word at bit off is p[q]>>r | p[q+1]<<1<<l
			nzc := 0
			for ky := 0; ky < 3; ky++ {
				q := (oy+ky)*rsw + off/64
				ps, pm := sgn[q:q+segw+1:q+segw+1], nz[q:q+segw+1:q+segw+1]
				for i := 0; i < segw; i++ {
					m := pm[i]>>r | pm[i+1]<<1<<l
					if i == segw-1 {
						m &= last
					}
					k := 2 * (ky*segw + i)
					v[k], v[k+1] = ps[i]>>r|ps[i+1]<<1<<l, m
					nzc += bits.OnesCount64(m)
				}
			}
			v[2*kw] = uint64(nzc)
		}
		for f := f0; f < f1; f++ {
			if f == lo {
				xnorRowSIMD(conv[f*cs+oy*pl.wp:], cs, win, w, kw, (hi-lo)/4, wts[f*kw:])
				f = hi - 1
				continue
			}
			out := conv[f*cs+oy*pl.wp:][:w]
			b := wts[f/4*kw*4+f%4:]
			switch kw {
			case 3:
				xnorRow3(out, win, b[0], b[4], b[8])
			case 6:
				xnorRow6(out, win, b[0], b[4], b[8], b[12], b[16], b[20])
			default:
				xnorRowN(out, win, b, kw)
			}
		}
	}
}

// xnorRow3 sweeps one filter over a row of windows of 3 words (C ≤ 21:
// each kernel row fits one word).
func xnorRow3(out []float32, win []uint64, b0, b1, b2 uint64) {
	for ox := range out {
		v := win[ox*7 : ox*7+7 : ox*7+7]
		h := bits.OnesCount64((v[0]^b0)&v[1]) + bits.OnesCount64((v[2]^b1)&v[3]) + bits.OnesCount64((v[4]^b2)&v[5])
		out[ox] = float32(int(v[6]) - 2*h)
	}
}

// xnorRow6 is xnorRow3 for windows of 6 words (22 ≤ C ≤ 42).
func xnorRow6(out []float32, win []uint64, b0, b1, b2, b3, b4, b5 uint64) {
	for ox := range out {
		v := win[ox*13 : ox*13+13 : ox*13+13]
		h := bits.OnesCount64((v[0]^b0)&v[1]) + bits.OnesCount64((v[2]^b1)&v[3]) +
			bits.OnesCount64((v[4]^b2)&v[5]) + bits.OnesCount64((v[6]^b3)&v[7]) +
			bits.OnesCount64((v[8]^b4)&v[9]) + bits.OnesCount64((v[10]^b5)&v[11])
		out[ox] = float32(int(v[12]) - 2*h)
	}
}

// xnorRowN is the sweep for any window width kw; the filter's words are
// b[0], b[4], … (packXnorFilters' interleaving).
func xnorRowN(out []float32, win, b []uint64, kw int) {
	for ox := range out {
		v := win[ox*(2*kw+1) : (ox+1)*(2*kw+1)]
		h := 0
		for i := 0; i < kw; i++ {
			h += bits.OnesCount64((v[2*i] ^ b[4*i]) & v[2*i+1])
		}
		out[ox] = float32(int(v[2*kw]) - 2*h)
	}
}
