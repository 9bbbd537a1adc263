package bnn

import (
	"fmt"
	"math/bits"
	"unsafe"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// This file is the bit-domain convolution of the ConvP block, the one a
// block runs when its input arrives as bit planes. Above the devices a
// ConvP block's input is ternary: ±1 feature maps, and zero channels
// where a device is absent. For x ∈ {−1, 0, +1} and weights w ∈ {−1, +1}
// every product is ±1 or 0, so a 3×3×C window sums to
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
// The convolution reads two bit planes, sign and nonzero, pixel-major:
// padded pixel x of a row holds channels 0..C−1 at bits x·C..x·C+C−1 of
// the row's bit string. A window's kernel row ky is then the 3C
// consecutive bits starting at ox·C of row oy+ky, read as segw words; the
// filters are packed the same way (BinaryConv2D.SyncWeights). The input
// is a Planes, this layout over a whole padded image, filled from packed
// feature maps by Place. A float input never comes here: it runs the
// float tile (fused.go), whatever values it holds.

// xnorSegWords returns the words one kernel row of a window (3C bits)
// spans.
func xnorSegWords(c int) int { return (3*c + 63) / 64 }

// xnorRowWords returns the words of one padded row's bit string: wp
// pixels of c bits, plus the two words a window read or a pixel store may
// touch past the last bit.
func xnorRowWords(c, wp int) int { return (wp*c+63)/64 + 2 }

// xnorSegmentWords returns the words of a band's row segments (see
// xnorConv3x3) for rows convolution rows w wide: per padded row and
// position, segw sign/nonzero word pairs and their nonzero count.
func xnorSegmentWords(c, w, rows int) int { return (rows + 2) * w * (2*xnorSegWords(c) + 1) }

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

// xnorConv3x3 writes the convolution of rows output rows, read from the
// bit planes sgn and nz from the band's first padded row on, for every
// filter into conv exactly where tensor.ConvSign3x3 would: filter f's
// output row oy, column ox at conv[f*cs + oy*wp + ox]. It writes only the
// w image columns of each row; the caller overwrites the two that end it.
// Each padded row's segments — per position ox, the 3C bits from bit ox·C
// as segw (sign, nonzero) word pairs, then their nonzero count — are
// extracted once into seg (xnorSegmentWords); the window of output
// (oy, ox) is the segments of rows oy, oy+1 and oy+2 at ox, w·(2·segw+1)
// words apart, which every filter sweeps: on the simd path the whole
// groups of four by the AVX2 kernel, the rest one filter at a time.
func xnorConv3x3(path tensor.KernelPath, conv []float32, cs int, wts, sgn, nz, seg []uint64, pl fusedPlan, rows int) {
	c, w, rsw := pl.c, pl.w, pl.rsw
	segw := xnorSegWords(c)
	kw, ss := 3*segw, 2*segw+1
	rs := w * ss                               // words between a window's kernel rows
	last := ^uint64(0) >> uint((64-3*c%64)%64) // the 3C bits of a segment's last word
	seg = seg[:(rows+2)*rs]
	simd := 0 // filters [0, simd) go to the AVX2 sweep
	if path == tensor.KernelSIMD && kw <= 31 {
		simd = pl.f / 4 * 4
	}
	for t := 0; t < rows+2; t++ {
		for ox := 0; ox < w; ox++ {
			v := seg[t*rs+ox*ss : t*rs+(ox+1)*ss : t*rs+(ox+1)*ss]
			off := ox * c
			r, l := uint(off)&63, (63-uint(off))&63 // a word at bit off is p[q]>>r | p[q+1]<<1<<l
			q := t*rsw + off/64
			ps, pm := sgn[q:q+segw+1:q+segw+1], nz[q:q+segw+1:q+segw+1]
			nzc := 0
			for i := 0; i < segw; i++ {
				m := pm[i]>>r | pm[i+1]<<1<<l
				if i == segw-1 {
					m &= last
				}
				v[2*i], v[2*i+1] = ps[i]>>r|ps[i+1]<<1<<l, m
				nzc += bits.OnesCount64(m)
			}
			v[2*segw] = uint64(nzc)
		}
	}
	for oy := 0; oy < rows; oy++ {
		win := seg[oy*rs:]
		if simd > 0 {
			xnorRowSIMD(conv[oy*pl.wp:], cs, win, w, segw, rs, simd/4, wts)
		}
		for f := simd; f < pl.f; f++ {
			out := conv[f*cs+oy*pl.wp:][:w]
			b := wts[f/4*kw*4+f%4:]
			switch segw {
			case 1:
				xnorRow3(out, win, rs, b[0], b[4], b[8])
			case 2:
				xnorRow6(out, win, rs, b[0], b[4], b[8], b[12], b[16], b[20])
			default:
				xnorRowN(out, win, rs, segw, b)
			}
		}
	}
}

// xnorRow3 sweeps one filter over a row of windows whose kernel rows are
// one word each (C ≤ 21): the segments at win, win[rs:] and win[2rs:],
// three words per position.
func xnorRow3(out []float32, win []uint64, rs int, b0, b1, b2 uint64) {
	for ox := range out {
		u := win[ox*3 : ox*3+3 : ox*3+3]
		v := win[rs+ox*3 : rs+ox*3+3 : rs+ox*3+3]
		x := win[2*rs+ox*3 : 2*rs+ox*3+3 : 2*rs+ox*3+3]
		h := bits.OnesCount64((u[0]^b0)&u[1]) + bits.OnesCount64((v[0]^b1)&v[1]) + bits.OnesCount64((x[0]^b2)&x[1])
		out[ox] = float32(int(u[2]+v[2]+x[2]) - 2*h)
	}
}

// xnorRow6 is xnorRow3 for kernel rows of two words (22 ≤ C ≤ 42).
func xnorRow6(out []float32, win []uint64, rs int, b0, b1, b2, b3, b4, b5 uint64) {
	for ox := range out {
		u := win[ox*5 : ox*5+5 : ox*5+5]
		v := win[rs+ox*5 : rs+ox*5+5 : rs+ox*5+5]
		x := win[2*rs+ox*5 : 2*rs+ox*5+5 : 2*rs+ox*5+5]
		h := bits.OnesCount64((u[0]^b0)&u[1]) + bits.OnesCount64((u[2]^b1)&u[3]) +
			bits.OnesCount64((v[0]^b2)&v[1]) + bits.OnesCount64((v[2]^b3)&v[3]) +
			bits.OnesCount64((x[0]^b4)&x[1]) + bits.OnesCount64((x[2]^b5)&x[3])
		out[ox] = float32(int(u[4]+v[4]+x[4]) - 2*h)
	}
}

// xnorRowN is the sweep for kernel rows of any segw words; the filter's
// words are b[0], b[4], … (packXnorFilters' interleaving).
func xnorRowN(out []float32, win []uint64, rs, segw int, b []uint64) {
	ss := 2*segw + 1
	for ox := range out {
		h, nzc := 0, 0
		for ky := 0; ky < 3; ky++ {
			v := win[ky*rs+ox*ss : ky*rs+(ox+1)*ss]
			for i := 0; i < segw; i++ {
				h += bits.OnesCount64((v[2*i] ^ b[4*(ky*segw+i)]) & v[2*i+1])
			}
			nzc += int(v[2*segw])
		}
		out[ox] = float32(nzc - 2*h)
	}
}

// Planes is a batch of ternary feature maps in the layout the XNOR
// convolution reads, so a block can take its input without a float
// round trip: per sample, the zero-padded image — H+2 rows of W+2
// pixels — as the two pixel-major bit planes described above, sign (+1)
// and nonzero, each row rsw words (xnorRowWords). A clear nonzero bit is
// a 0 input: the padding, an absent device's channel group, an element
// no present device covers.
type Planes struct {
	N, C, H, W int
	rsw        int
	sgn, nz    []uint64
	buf        *tensor.Tensor // the pool storage behind sgn and nz
}

// GetPlanes returns zeroed planes for n maps of c channels, h×w, drawn
// from p; Put returns them.
func GetPlanes(p *tensor.Pool, n, c, h, w int) Planes {
	pl := Planes{N: n, C: c, H: h, W: w, rsw: xnorRowWords(c, w+2)}
	words := n * (h + 2) * pl.rsw
	pl.buf = p.Get(4*words + 1) // two planes of words, and wordView's alignment slack
	v := wordView(pl.buf.Data())
	pl.sgn, pl.nz = v[:words:words], v[words:2*words:2*words]
	return pl
}

// Put returns the planes' storage to p.
func (pl Planes) Put(p *tensor.Pool) { p.Put(pl.buf) }

// rows returns sample i's planes from padded row r on.
func (pl Planes) rows(i, r int) (sgn, nz []uint64) {
	per := (pl.H + 2) * pl.rsw
	lo, hi := i*per+r*pl.rsw, (i+1)*per
	return pl.sgn[lo:hi:hi], pl.nz[lo:hi:hi]
}

// PlacePacked returns planes from p (Put them back once consumed) holding
// n maps of c channels, h×w, packed back to back one PackedSize(c·h·w)
// run per sample: PackSamplesInto's layout, ForwardPacked's output and
// the wire's batched feature payload.
func PlacePacked(p *tensor.Pool, packed []byte, n, c, h, w int) Planes {
	pl, stride := GetPlanes(p, n, c, h, w), PackedSize(c*h*w)
	for i := 0; i < n; i++ {
		pl.Place(i, 0, [][]byte{packed[i*stride : (i+1)*stride]}, c)
	}
	return pl
}

// Place ORs one sample's packed feature maps into sample i, side by
// side from channel c0 on: maps[k] — f channels of H×W in PackSigns
// order, the wire's feature payload — fills channels c0+k·f … c0+k·f+f−1
// and sets their nonzero bits, and a nil map leaves its channel group
// absent. Maps placed on the same channels OR their signs, which is the
// MP of ±1 maps; maps placed side by side are their CC.
func (pl Planes) Place(i, c0 int, maps [][]byte, f int) {
	h, w, c, rsw := pl.H, pl.W, pl.C, pl.rsw
	n := len(maps) * f // channels placed
	if c0 < 0 || c0+n > c {
		panic(fmt.Sprintf("bnn: Place channels [%d,%d) of %d-channel planes", c0, c0+n, c))
	}
	for _, m := range maps {
		if m != nil && len(m) != PackedSize(f*h*w) {
			panic(fmt.Sprintf("bnn: Place a %d-byte map as %d channels of %d×%d", len(m), f, h, w))
		}
	}
	sgn, nz := pl.rows(i, 0)
	// Every image pixel gets the same nonzero bits, so image row 0 (padded
	// row 1) collects them and is copied to the others.
	tmpl := nz[rsw : 2*rsw]
	for k, m := range maps {
		if m != nil {
			for x := 1; x <= w; x++ {
				setRun(tmpl, x*c+c0+k*f, f)
			}
		}
	}
	for y := 2; y <= h; y++ {
		for j, v := range tmpl {
			nz[y*rsw+j] |= v
		}
	}
	// Signs, 64 channels at a time: per 8-pixel run of a row, eight
	// channels are one 8×8 bit transpose, and a pixel's channels are then
	// one run of bits.
	var src [64][]byte // the chunk's channels: their map, nil if absent
	var off [64]int    // the bit where each one's plane starts
	for k64 := 0; k64 < n; k64 += 64 {
		cn := min(64, n-k64)
		for k := 0; k < cn; k++ {
			src[k], off[k] = maps[(k64+k)/f], (k64+k)%f*h*w
		}
		for y := 0; y < h; y++ {
			row := uint((y+1)*rsw*64 + c0 + k64)
			for x0 := 0; x0 < w; x0 += 8 {
				var pix [8]uint64
				for k0 := 0; k0 < cn; k0 += 8 {
					var t uint64
					for k := k0; k < min(cn, k0+8); k++ {
						if src[k] != nil {
							t |= bits8(src[k], off[k]+y*w+x0) << uint(8*(k-k0))
						}
					}
					if t == 0 {
						continue
					}
					t = transpose8(t) // byte j: pixel x0+j's channels k0 … k0+7
					for j := range pix {
						pix[j] |= (t >> uint(8*j) & 0xff) << uint(k0)
					}
				}
				b := row + uint((x0+1)*c)
				for j := 0; j < min(8, w-x0); j, b = j+1, b+uint(c) {
					if v := pix[j]; v != 0 {
						q, r := b/64, b%64
						sgn[q] |= v << r
						sgn[q+1] |= v >> 1 >> (63 - r)
					}
				}
			}
		}
	}
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

// setRun sets the n bits of words from bit b on.
func setRun(words []uint64, b, n int) {
	for n > 0 {
		q, r := b/64, uint(b%64)
		k := min(n, 64-int(r))
		words[q] |= (^uint64(0) >> uint(64-k)) << r
		b, n = b+k, n-k
	}
}

// bits8 returns the eight bits of src from bit off on (LSB first), zero
// past its end.
func bits8(src []byte, off int) uint64 {
	q, r := off/8, uint(off%8)
	if r == 0 {
		return uint64(src[q])
	}
	v := uint64(src[q])
	if q+1 < len(src) {
		v |= uint64(src[q+1]) << 8
	}
	return v >> r & 0xff
}

// putBits ORs the k low bits of v, the rest being zero, into dst from
// bit off on.
func putBits(dst []byte, off int, v uint64, k int) {
	for k > 0 {
		q, r := off/8, off%8
		dst[q] |= byte(v << uint(r))
		n := min(k, 8-r)
		v >>= uint(n)
		off += n
		k -= n
	}
}
