package bnn

import (
	"encoding/binary"
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
// signs and b the filter's signs. The lowered GEMM of the layered
// forward (ConvP.ForwardPooled) accumulates the same terms on the same
// map as floats, as exact integers — every partial sum is an integer of
// magnitude ≤ 9C, and it starts from +0, so it ends at the same value
// and never at −0 — so the two are bit-identical by construction.
//
// The convolution reads two bit planes, sign and nonzero, pixel-major:
// padded pixel x of a row holds channels 0..C−1 at bits x·C..x·C+C−1 of
// the row's bit string, so a window's kernel row ky is the 3C
// consecutive bits from bit ox·C of row oy+ky. The input is a Planes,
// this layout over a whole padded image, filled from packed feature maps
// by Place. A float input never comes here: it runs the layered forward,
// whatever values it holds.
//
// Each window is built once, as one dense string of 9C sign and 9C
// nonzero bits in ⌈9C/64⌉ words (xnorWindow) that every filter sweeps;
// the filters are packed in the same order (BinaryConv2D.SyncWeights).
// A kernel row's 3C bits are q = ⌊3C/64⌋ whole words and a tail of
// t = 3C mod 64 bits: the window holds the three rows' whole words,
// then the three tails back to back, so its words are exactly
// 3q + ⌈3t/64⌉ = ⌈9C/64⌉ — 4 for the default cloud's C = 24, where a
// row padded to whole words took 6. The shifts that align a row's bits
// are paid once per padded row (segments), which three window rows
// share; a window only copies words and merges tails (assemble). The
// sweep writes each count, an integer of magnitude ≤ 9C, as an int16
// record in the layout of tensor.PoolFrameThreshold, the epilogue of
// every serving block.

// xnorWindow is the word layout of a 3×3×C window and of a packed
// filter: kernel row ky's whole words at ky·q … ky·q+q−1, then the
// tails, row ky's t bits from bit ky·t of word 3q on.
type xnorWindow struct{ q, t, ww int }

func windowOf(c int) xnorWindow {
	q, t := 3*c/64, 3*c%64
	return xnorWindow{q: q, t: t, ww: 3*q + (3*t+63)/64}
}

// segWords returns the words of one row segment (xnorWindow.segments):
// q whole (sign, nonzero) pairs, a tail pair when t > 0,
// and the nonzero count.
func (wl xnorWindow) segWords() int { return 2*wl.q + 2*min(wl.t, 1) + 1 }

// windowTails says, per kernel row ky, where its tail goes in a window:
// the byte offset of its tail word's (sign, nonzero) pair, its shift,
// and 1 when it spills into the next pair.
type windowTails [9]int

func (wl xnorWindow) tails() (t windowTails) {
	for ky := 0; ky < 3; ky++ {
		bt := ky * wl.t
		t[3*ky], t[3*ky+1] = 16*(3*wl.q+bt/64), bt%64
		if bt%64+wl.t > 64 {
			t[3*ky+2] = 1
		}
	}
	return t
}

// at returns the word and bit of bit b (= kx·C + ci) of kernel row ky.
func (wl xnorWindow) at(ky, b int) (int, uint) {
	if b < 64*wl.q {
		return ky*wl.q + b/64, uint(b % 64)
	}
	tails := wl.tails()
	pair, sh := tails[3*ky]/16, tails[3*ky+1]
	return pair + (sh+b-64*wl.q)/64, uint((sh + b - 64*wl.q) % 64)
}

// segments writes the row segments of rows padded rows, read from the
// bit planes sgn and nz (rsw words a row), into seg: per row and
// position ox < w, the 3C bits from bit ox·c as q whole (sign, nonzero)
// word pairs, the tail pair when t > 0 and the nonzero count, segWords
// words. Each padded row is extracted once for the three window rows
// that read it.
func (wl xnorWindow) segments(seg, sgn, nz []uint64, c, w, rows, rsw int) {
	q, ss := wl.q, wl.segWords()
	tmask := uint64(1)<<uint(wl.t) - 1
	for t := 0; t < rows; t++ {
		for ox := 0; ox < w; ox++ {
			v := seg[(t*w+ox)*ss : (t*w+ox+1)*ss : (t*w+ox+1)*ss]
			off := ox * c
			r, l := uint(off)&63, (63-uint(off))&63 // a word at bit off is p[i]>>r | p[i+1]<<1<<l
			at := t*rsw + off/64
			ps, pm := sgn[at:at+q+2:at+q+2], nz[at:at+q+2:at+q+2]
			nzc := 0
			for i := 0; i < q; i++ {
				m := pm[i]>>r | pm[i+1]<<1<<l
				v[2*i], v[2*i+1] = ps[i]>>r|ps[i+1]<<1<<l, m
				nzc += bits.OnesCount64(m)
			}
			if wl.t > 0 {
				m := (pm[q]>>r | pm[q+1]<<1<<l) & tmask
				v[2*q], v[2*q+1] = (ps[q]>>r|ps[q+1]<<1<<l)&tmask, m
				nzc += bits.OnesCount64(m)
			}
			v[ss-1] = uint64(nzc)
		}
	}
}

// assemble builds the windows of one output row from the segments of
// its three padded rows, seg starting at the first, into win: per
// column, its ww (sign, nonzero) word pairs — the rows' whole pairs,
// then their tails merged (tails) — and its nonzero count, 2·ww+1
// words. The even columns come first and then the odd ones, the order
// of the record slots they fill.
func (wl xnorWindow) assemble(win, seg []uint64, w int, tails *windowTails) {
	q, ws, ss, ne := wl.q, 2*wl.ww+1, wl.segWords(), (w+1)/2
	for ox := 0; ox < w; ox++ {
		k := ox/2 + ox%2*ne
		v := win[k*ws : (k+1)*ws : (k+1)*ws]
		// A window's few words are moved word by word: a copy or clear
		// call per row costs more than the words it moves.
		tail := v[6*q : 2*wl.ww]
		for i := range tail {
			tail[i] = 0
		}
		nzc := 0
		for ky := 0; ky < 3; ky++ {
			sg := seg[(ky*w+ox)*ss : (ky*w+ox+1)*ss : (ky*w+ox+1)*ss]
			row := v[2*ky*q : 2*(ky+1)*q]
			for i, x := range sg[:len(row)] {
				row[i] = x
			}
			if wl.t > 0 {
				j, sh := tails[3*ky]/8, uint(tails[3*ky+1])
				v[j] |= sg[2*q] << sh
				v[j+1] |= sg[2*q+1] << sh
				if tails[3*ky+2] != 0 {
					v[j+2] |= sg[2*q] >> (64 - sh)
					v[j+3] |= sg[2*q+1] >> (64 - sh)
				}
			}
			nzc += int(sg[ss-1])
		}
		v[2*wl.ww] = uint64(nzc)
	}
}

// xnorRowWords returns the words of one padded row's bit string: wp
// pixels of c bits, plus the two words a window read or a pixel store may
// touch past the last bit.
func xnorRowWords(c, wp int) int { return (wp*c+63)/64 + 2 }

// packXnorFilters packs ±1 filters [f, c, 3, 3] in window order
// (xnorWindow): tap (ky, kx) of channel ci is bit kx·c + ci of kernel
// row ky, set when w[f, ci, ky, kx] is +1. Filters are stored in groups
// of four with their ww words interleaved — word i of filter fi at
// ((fi/4)·ww + i)·4 + fi%4 — so the AVX2 sweep loads word i of four
// filters at once; a short last group is zero-filled. dst is reused when
// its length fits.
func packXnorFilters(dst []uint64, w []float32, f, c int) []uint64 {
	wl := windowOf(c)
	if n := (f + 3) / 4 * 4 * wl.ww; len(dst) != n {
		dst = make([]uint64, n)
	} else {
		clear(dst)
	}
	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < c; ci++ {
			for k, v := range w[(fi*c+ci)*9 : (fi*c+ci+1)*9] {
				if v > 0 {
					word, bit := wl.at(k/3, k%3*c+ci)
					dst[((fi/4)*wl.ww+word)*4+fi%4] |= 1 << bit
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
// bit planes sgn and nz from the band's first padded row on, into int16
// records: filter f's output row oy, column ox at rec[f*ds + oy*rs + i],
// i being the column's slot in tensor.PoolFrameThreshold's record (odd
// columns from 1, even ones from 1+half). It writes no other slot. The
// band's padded rows are cut into segments once (seg), each output
// row's windows are assembled from them once (win) and every filter
// sweeps them: on the simd path in scalar amd64 and, for the filters in
// whole groups of eight, the AVX2 sweep; otherwise in Go, one filter at
// a time.
func xnorConv3x3(path tensor.KernelPath, rec []int16, ds int, wts, sgn, nz, win, seg []uint64, pl *fusedPlan, rows int) {
	wl, w := pl.win, pl.w
	tails := wl.tails()
	ws, ne, half := 2*wl.ww+1, (w+1)/2, tensor.FrameHalfWidth(w)
	simd := path == tensor.KernelSIMD
	vec := 0 // filters [0, vec) go to the AVX2 sweep
	if simd && wl.ww <= 31 {
		vec = pl.f / 8 * 8
	}
	if simd {
		wl.segmentsSIMD(seg, sgn, nz, pl.c, w, rows+2, pl.rsw)
	} else {
		wl.segments(seg, sgn, nz, pl.c, w, rows+2, pl.rsw)
	}
	for oy := 0; oy < rows; oy++ {
		if row := seg[oy*w*wl.segWords():]; simd {
			wl.assembleSIMD(win, row, w, &tails)
		} else {
			wl.assemble(win, row, w, &tails)
		}
		for _, part := range [2][3]int{{0, ne, 1 + half}, {ne, w - ne, 1}} { // even columns, odd columns
			k0, n, at := part[0], part[1], part[2]
			out, v := rec[oy*pl.rs+at:], win[k0*ws:]
			if vec > 0 && n > 0 {
				xnorSweepSIMD(out, ds, v, n, wl.ww, vec/8, wts)
			}
			xnorSweep(out, ds, v, n, wl.ww, vec, pl.f, wts)
		}
	}
}

// xnorSweep sweeps filters [f0, f1), f0 a multiple of four, over n
// consecutive windows of ww words each, writing filter f's count for
// window k to out[f*ds+k]. A group of four filters reads each window
// word once: word i of filter f is wts[(f/4*ww+i)*4 + f%4]
// (packXnorFilters' interleaving; a short last group's missing filters
// are zero words, whose counts are not stored).
func xnorSweep(out []int16, ds int, win []uint64, n, ww, f0, f1 int, wts []uint64) {
	for g := f0 / 4; g < (f1+3)/4; g++ {
		fw := wts[g*ww*4 : (g+1)*ww*4]
		var h [4]int
		for k := 0; k < n; k++ {
			v := win[k*(2*ww+1):][:2*ww+1] // the pairs, then the count
			h = [4]int{}
			for i := 0; i+3 < len(fw); i += 4 {
				s, m := v[i/2], v[i/2+1]
				h[0] += bits.OnesCount64((s ^ fw[i]) & m)
				h[1] += bits.OnesCount64((s ^ fw[i+1]) & m)
				h[2] += bits.OnesCount64((s ^ fw[i+2]) & m)
				h[3] += bits.OnesCount64((s ^ fw[i+3]) & m)
			}
			for l := range min(4, f1-4*g) {
				out[(4*g+l)*ds+k] = int16(int(v[2*ww]) - 2*h[l])
			}
		}
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
	var px [1]uint64 // one pixel's bits, when they fit a word
	for k, m := range maps {
		if m != nil {
			if c <= 64 {
				setRun(px[:], c0+k*f, f)
				continue
			}
			for x := 1; x <= w; x++ {
				setRun(tmpl, x*c+c0+k*f, f)
			}
		}
	}
	for b := uint(c); px[0] != 0 && b <= uint(w*c); b += uint(c) {
		tmpl[b/64] |= px[0] << (b % 64)
		tmpl[b/64+1] |= px[0] >> 1 >> (63 - b%64)
	}
	for y := 2; y <= h; y++ {
		for j, v := range tmpl {
			nz[y*rsw+j] |= v
		}
	}
	if tensor.CurrentKernelPath() == tensor.KernelSIMD && pl.placeSIMD(sgn, c0, maps, f) {
		return
	}
	// Signs, eight channels at a time: per image row each channel's row
	// is read as words of up to 56 pixels, and per 8-pixel run the eight
	// channels' bytes are one 8×8 bit transpose from the run's pixels'
	// channel bytes, each ored in at its pixel's bits.
	for k0 := 0; k0 < n; k0 += 8 {
		var src [8][]byte // the group's channels: their map, nil if absent
		var off [8]int    // the bit where each one's plane starts
		some := false
		for k := 0; k < min(8, n-k0); k++ {
			src[k], off[k] = maps[(k0+k)/f], (k0+k)%f*h*w
			some = some || src[k] != nil
		}
		if !some {
			continue
		}
		for y := 0; y < h; y++ {
			at := uint((y+1)*rsw*64 + c + c0 + k0) // image pixel 0's bit of the group
			for x0 := 0; x0 < w; x0 += 56 {
				var row [8]uint64
				for k, m := range src {
					if m != nil {
						row[k] = loadBits(m, off[k]+y*w+x0)
					}
				}
				xn := min(56, w-x0)
				for j0 := uint(0); j0 < uint(xn); j0 += 8 {
					t := row[0]>>j0&0xff | row[1]>>j0&0xff<<8 | row[2]>>j0&0xff<<16 | row[3]>>j0&0xff<<24 |
						row[4]>>j0&0xff<<32 | row[5]>>j0&0xff<<40 | row[6]>>j0&0xff<<48 | row[7]>>j0&0xff<<56
					if t == 0 {
						continue
					}
					t = transpose8(t) // byte j: pixel x0+j0+j's channels k0 … k0+7
					b := at + (uint(x0)+j0)*uint(c)
					for j, jn := uint(0), min(8, uint(xn)-j0); j < jn; j, b = j+1, b+uint(c) {
						v := t >> (8 * j) & 0xff
						q, r := b/64, b%64
						sgn[q] |= v << r
						if r > 56 {
							sgn[q+1] |= v >> (64 - r)
						}
					}
				}
			}
		}
	}
}

// placeSIMD runs Place's signs on the simd kernel, 32 channels a call,
// and reports false, having placed nothing, for a width it does not take.
func (pl Planes) placeSIMD(sgn []uint64, c0 int, maps [][]byte, f int) bool {
	h, w, n := pl.H, pl.W, len(maps)*f
	var chans [32][]byte
	for k0 := 0; k0 < n; k0 += 32 {
		kn := min(32, n-k0)
		for k := range kn {
			chans[k] = nil
			if m := maps[(k0+k)/f]; m != nil {
				chans[k] = m[(k0+k)%f*h*w/8:]
			}
		}
		if !placeSignsSIMD(sgn, &chans, kn, h, w, pl.rsw*64, pl.rsw*64+pl.C+c0+k0, pl.C) {
			return false
		}
	}
	return true
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

// loadBits returns at least the 56 bits of src from bit off on (LSB
// first) in one word, zero past its end.
func loadBits(src []byte, off int) uint64 {
	q, r := off/8, uint(off%8)
	if q+8 <= len(src) {
		return binary.LittleEndian.Uint64(src[q:]) >> r
	}
	var v uint64
	for i, b := range src[q:] {
		v |= uint64(b) << (8 * uint(i))
	}
	return v >> r
}
