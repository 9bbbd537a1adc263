package bnn

import (
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// This file is the fused inference kernel of the ConvP block. Its input
// type picks the convolution: a float map (ConvP.ForwardPooled) runs the
// float sign tile, tensor.ConvSign3x3, whatever values it holds; bit
// planes (ForwardPlanes, ForwardPacked) run the XNOR convolution
// (xnorconv.go). The kernel path only picks the kernels either one runs.
// Both walk the batch sample by sample and each sample band by band: the
// band's convolution runs over a zero-padded view of its input rows —
// copied once into scratch from a float input, or read in place from the
// caller's bit planes — and each pooled row the band completes is
// pooled, normalized and binarized in one step. The only float
// intermediate is the band's convolution output, which never leaves the
// worker's scratch.
//
// Numeric contract: the output is bit-identical to the layered
// composition (ForwardLayered, and ConvP.Forward in inference mode).
// Every convolution output is the exact ±1 product the lowered GEMM
// computes from +0 in ascending (c, ky, kx) order, padding taps included;
// the pool scans its window row-major under "a value wins only if it
// compares greater", so NaN never wins; batch normalization is
// nn.BatchNorm.InferenceAffine's rounded multiply and rounded add; the
// activation is `>= 0` (−0 → +1, NaN → −1).
//
// A float input keeps that float epilogue (tensor.PoolAffineSignRow): a
// device block convolves real-valued frames, whose pooled values are
// not integers, and a threshold computed in different arithmetic would
// flip values that land on the zero crossing. A bit-plane input is
// ternary, so every convolution output and every pooled value is an
// integer m in [−9C, 9C], and sign(affine(m)) is a predicate on that
// finite set. SyncWeights evaluates InferenceAffine's own expression on
// every integer of the range once and stores where it flips: the
// epilogue is then one compare per output, m ≥ τ (scale > 0), m ≤ τ
// (scale < 0) or a constant (scale 0, or a NaN parameter). Rounding is
// monotone, so a single flip point exists and the compare reproduces
// the float epilogue exactly, by construction; deriveThresholds checks
// every point anyway.

// fusedScratchBudget caps one worker's scratch at 32 KB so the band, its
// convolution output and the four filters' weights in flight stay
// cache-resident. A block too wide for even a two-row band exceeds it.
const fusedScratchBudget = 32 << 10 / 4 // floats

// fusedParallelOps is the per-sample sign-add count above which a
// forward is split across the worker pool (over samples, or over filter
// blocks for one big sample), as nn.Conv2D splits its GEMMs.
const fusedParallelOps = 1 << 15

var negInf = float32(math.Inf(-1))

// fusedPlan is the scratch layout for one input geometry. The padded
// band xb holds c planes of (band+2) rows × wp columns; the convolution
// buffer cb holds, per filter, one leading −Inf, one carried row (the
// last convolution row of the previous band, which the next band's first
// pooled row still needs) and the band's rows, all wp wide — so the two
// junk positions that end every row double as the pool's −Inf padding
// for the row's right edge and the next row's left edge.
type fusedPlan struct {
	c, h, w, f int
	ph, pw     int // pooled output size
	wp         int // padded row width, w+2
	band       int // convolution rows per band (even)
	plane      int // floats per channel in xb
	cs         int // floats per filter in cb
	rsw        int // words per padded row of a bit plane (see xnorconv.go)
	xbLen      int // the float band, or the row segments sharing its storage
	size       int // xb + cb + per-filter scale and shift
}

func planFused(c, h, w, f int) fusedPlan {
	pl := fusedPlan{c: c, h: h, w: w, f: f, ph: (h-1)/2 + 1, pw: (w-1)/2 + 1, wp: w + 2}
	pl.rsw = xnorRowWords(c, pl.wp)
	layout := func(band int) {
		pl.band = band
		pl.plane = (band + 2) * pl.wp
		span := tensor.ConvSignSpan(band, pl.wp)
		pl.cs = 1 + pl.wp + span
		// ConvSign3x3 reads 2 rows + 2 columns past each position of the
		// span, in the last plane too. The bit pass's row segments (words
		// of two floats each, plus one float of alignment slack) reuse the
		// same storage.
		pl.xbLen = max((c-1)*pl.plane+2*pl.wp+2+span, 2*xnorSegmentWords(c, w, band)+1)
		pl.size = pl.xbLen + f*pl.cs + 2*f
	}
	// Largest even band within budget, then rebalanced so the bands of
	// one sample are equally tall.
	band := roundUp(h, 2)
	for layout(band); pl.size > fusedScratchBudget && band > 2; layout(band) {
		band -= 2
	}
	bands := (h + band - 1) / band
	layout(roundUp((h+bands-1)/bands, 2))
	return pl
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// ForwardPooled is the inference forward on a float map against a tensor
// pool: one fused pass per sample, the float tile, that draws only the
// output (the caller owns it) and a per-worker scratch buffer from p. The
// output is bit-identical on every kernel path and to Forward(x, false).
func (b *ConvP) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	path, conv := tensor.CurrentKernelPath(), b.Conv.inner
	if x.Dims() != 4 || x.Dim(1) != conv.InC {
		panic(fmt.Sprintf("bnn: ConvP %s input shape %v, want [N %d H W]", conv.Weight.Name, x.Shape(), conv.InC))
	}
	n := x.Dim(0)
	pl := planFused(conv.InC, x.Dim(2), x.Dim(3), conv.OutC)
	y := p.GetDirty(n, pl.f, pl.ph, pl.pw)

	big := pl.f*pl.c*9*pl.h*pl.w >= fusedParallelOps && tensor.MaxWorkers() > 1
	switch {
	case n > 1 && big:
		tensor.ParallelFor(n, 1, func(lo, hi int) { b.fusedRange(path, y, x, pl, p, lo, hi, 0, pl.f) })
	case n == 1 && big && pl.f >= 8:
		// One big sample (a cloud block at batch 1): every worker lowers
		// the bands itself — cheap next to the convolution — and owns a
		// block of filters end to end.
		tensor.ParallelFor(pl.f, 4, func(lo, hi int) { b.fusedRange(path, y, x, pl, p, 0, 1, lo, hi) })
	default:
		b.fusedRange(path, y, x, pl, p, 0, n, 0, pl.f)
	}
	return y
}

// fusedRange computes output filters [f0, f1) of samples [n0, n1) with
// one scratch buffer borrowed from p.
func (b *ConvP) fusedRange(path tensor.KernelPath, y, x *tensor.Tensor, pl fusedPlan, p *tensor.Pool, n0, n1, f0, f1 int) {
	buf := p.GetDirty(pl.size)
	defer p.Put(buf)
	scratch, yd, xd := buf.Data(), y.Data(), x.Data()
	xb := scratch[:pl.xbLen]
	cb := scratch[pl.xbLen : pl.xbLen+pl.f*pl.cs]
	affine := scratch[pl.xbLen+pl.f*pl.cs:]
	scale, shift := affine[:pl.f], affine[pl.f:2*pl.f]
	for f := f0; f < f1; f++ {
		scale[f], shift[f] = b.BN.InferenceAffine(f)
		cb[f*pl.cs] = negInf
	}
	wd := b.Conv.inner.Weight.Value.Data()
	wp, cs := pl.wp, pl.cs
	// Within a filter's cb segment, row t (0 = carried row, 1.. = band
	// rows) has its column −1 at t*wp and its column 0 at 1+t*wp.
	conv := cb[1+wp:]

	for ni := n0; ni < n1; ni++ {
		sample := xd[ni*pl.c*pl.h*pl.w : (ni+1)*pl.c*pl.h*pl.w]
		for f := f0; f < f1; f++ {
			// Row −1 of the convolution output is pool padding.
			fill(cb[f*cs+1:f*cs+1+wp], negInf)
		}
		for r0 := 0; r0 < pl.h; r0 += pl.band {
			rows := min(pl.band, pl.h-r0)
			lowerBand(xb, sample, pl, r0, rows)
			tensor.ConvSign3x3(path, conv, cs, wd, xb, pl.c, pl.plane, wp, rows, f0, f1)
			for f := f0; f < f1; f++ {
				seg := cb[f*cs : (f+1)*cs]
				padRowEnds(seg, pl, rows)
				for py := r0 / 2; py < (r0+rows+1)/2; py++ {
					top, mid, bot := poolRows(seg, pl, r0, py)
					out := yd[((ni*pl.f+f)*pl.ph+py)*pl.pw:][:pl.pw]
					tensor.PoolAffineSignRow(path, out, top, mid, bot, scale[f], shift[f])
				}
				copy(seg[1:1+wp], seg[1+rows*wp:1+(rows+1)*wp])
			}
		}
	}
}

// forwardBits is the bit-domain pass behind ForwardPacked: ternary bit
// planes in, one PackSigns run of stride bytes per sample out. It splits
// work over samples only: the filters of one sample share the bytes of
// its output, so a filter split would race.
func (b *ConvP) forwardBits(in Planes, out []byte, stride int, p *tensor.Pool) {
	conv := b.Conv.inner
	if in.C != conv.InC {
		panic(fmt.Sprintf("bnn: ConvP %s input planes have %d channels, want %d", conv.Weight.Name, in.C, conv.InC))
	}
	if len(b.thresh) != conv.OutC {
		panic(fmt.Sprintf("bnn: ConvP %s has no thresholds; call SyncWeights", conv.Weight.Name))
	}
	path := tensor.CurrentKernelPath()
	pl := planFused(in.C, in.H, in.W, conv.OutC)
	if in.N > 1 && pl.f*pl.c*9*pl.h*pl.w >= fusedParallelOps && tensor.MaxWorkers() > 1 {
		tensor.ParallelFor(in.N, 1, func(lo, hi int) { b.bitsRange(path, in, out, stride, pl, p, lo, hi) })
		return
	}
	b.bitsRange(path, in, out, stride, pl, p, 0, in.N)
}

// bitsRange is fusedRange on bit planes, for samples [n0, n1) and every
// filter: the bands are read from the planes in place, every band is
// XNOR, and each filter's pooled rows end in its integer threshold,
// written as its run of the sample's PackSigns bits.
func (b *ConvP) bitsRange(path tensor.KernelPath, in Planes, out []byte, stride int, pl fusedPlan, p *tensor.Pool, n0, n1 int) {
	buf := p.GetDirty(pl.size)
	defer p.Put(buf)
	scratch := buf.Data()
	cb := scratch[pl.xbLen : pl.xbLen+pl.f*pl.cs]
	seg := wordView(scratch[:pl.xbLen])
	wp, cs := pl.wp, pl.cs
	conv := cb[1+wp:] // as in fusedRange
	for f := 0; f < pl.f; f++ {
		cb[f*cs] = negInf
		// The XNOR convolution writes only image columns, so the pool's
		// padding at the row ends is set once for every band.
		padRowEnds(cb[f*cs:(f+1)*cs], pl, pl.band)
	}

	for ni := n0; ni < n1; ni++ {
		signs := out[ni*stride : (ni+1)*stride]
		for f := 0; f < pl.f; f++ {
			fill(cb[f*cs+1:f*cs+1+wp], negInf)
		}
		for r0 := 0; r0 < pl.h; r0 += pl.band {
			rows := min(pl.band, pl.h-r0)
			// Padded rows r0 .. r0+rows+1 are input rows r0−1 .. r0+rows.
			sgn, nz := in.rows(ni, r0)
			xnorConv3x3(path, conv, cs, b.Conv.xnor, sgn, nz, seg, pl, rows)
			py1 := (r0 + rows + 1) / 2
			for f := 0; f < pl.f; f++ {
				seg, th := cb[f*cs:(f+1)*cs], b.thresh[f]
				// A filter's pooled rows are consecutive runs of its
				// PackSigns bits, so up to 64 bits go at once: nr rows
				// while their windows stay in the image.
				for py := r0 / 2; py < py1; {
					top, mid, bot := poolRows(seg, pl, r0, py)
					nr, k := 1, min(64, pl.pw)
					if q := (pl.h - 2*py) / 2; q > 0 && pl.pw <= 64 {
						nr = min(64/pl.pw, py1-py, q)
					}
					for px := 0; px < pl.pw; px += k {
						k = min(k, pl.pw-px)
						putBits(signs, (f*pl.ph+py)*pl.pw+px, tensor.PoolThresholdRows(path, top[2*px:], mid[2*px:], bot[2*px:], 2*wp, nr, k, th.s, th.t), nr*k)
					}
					py += nr
				}
				copy(seg[1:1+wp], seg[1+rows*wp:1+(rows+1)*wp])
			}
		}
	}
}

// padRowEnds sets the two junk positions that end each of a filter
// segment's first rows band rows to −Inf, the pool's padding.
func padRowEnds(seg []float32, pl fusedPlan, rows int) {
	for t := 1; t <= rows; t++ {
		seg[1+t*pl.wp+pl.w], seg[1+t*pl.wp+pl.w+1] = negInf, negInf
	}
}

// poolRows returns the three convolution rows of a filter segment that
// pooled row py reads in the band from row r0: rows 2py−1..2py+1, i.e.
// segment rows t−1..t+1 with t = 2py−r0+1, so a band's pooled rows are
// two segment rows apart.
func poolRows(seg []float32, pl fusedPlan, r0, py int) (top, mid, bot []float32) {
	t := 2*py - r0 + 1
	top, mid = seg[(t-1)*pl.wp:], seg[t*pl.wp:]
	bot = mid // row 2py+1 is below the image: repeat one that is not
	if 2*py+1 < pl.h {
		bot = seg[(t+1)*pl.wp:]
	}
	return top, mid, bot
}

// threshold is one filter's integer epilogue on bit-plane input: the
// block outputs +1 exactly when s·m ≥ t, m being the window's maximum
// convolution output and s ±1. t is an integer, or ±Inf for an output
// that is constant.
type threshold struct{ s, t float32 }

// deriveThresholds writes filter f's threshold for convolutions over c
// input channels into dst[f], reusing dst when its length fits. It
// evaluates bn's inference transform exactly as the float epilogue does,
// float32(scale·m) + shift ≥ 0, at every integer m in [−9c, 9c] and
// records the one point where the answer flips (see the file comment),
// then confirms the compare on every point.
func deriveThresholds(dst []threshold, bn *nn.BatchNorm, c int) []threshold {
	if len(dst) != bn.C {
		dst = make([]threshold, bn.C)
	}
	k := 9 * c
	for f := range dst {
		scale, shift := bn.InferenceAffine(f)
		pass := func(m int) bool { return float32(scale*float32(m))+shift >= 0 }
		th := threshold{s: 1, t: float32(math.Inf(1))} // never +1
		switch lo, hi := pass(-k), pass(k); {
		case lo && hi:
			th.t = negInf // always +1
		case hi: // false then true: m ≥ τ
			m := -k
			for !pass(m) {
				m++
			}
			th.t = float32(m)
		case lo: // true then false: m ≤ τ, i.e. −m ≥ −τ
			m := k
			for !pass(m) {
				m--
			}
			th = threshold{s: -1, t: float32(-m)}
		}
		for m := -k; m <= k; m++ {
			if pass(m) != (th.s*float32(m) >= th.t) {
				panic(fmt.Sprintf("bnn: batch norm %s channel %d is not monotone at %d (scale %g, shift %g)", bn.Gamma.Name, f, m, scale, shift))
			}
		}
		dst[f] = th
	}
	return dst
}

// lowerBand copies input rows r0−1 .. r0+rows of every channel into the
// padded band, zeroing the border columns and the rows outside the
// image — the zero padding of the convolution.
func lowerBand(xb, sample []float32, pl fusedPlan, r0, rows int) {
	h, w, wp := pl.h, pl.w, pl.wp
	for ci := 0; ci < pl.c; ci++ {
		in := sample[ci*h*w : (ci+1)*h*w]
		dst := xb[ci*pl.plane:]
		for t := 0; t < rows+2; t++ {
			row := dst[t*wp : (t+1)*wp]
			iy := r0 - 1 + t
			if iy < 0 || iy >= h {
				clear(row)
				continue
			}
			row[0], row[w+1] = 0, 0
			copy(row[1:], in[iy*w:(iy+1)*w])
		}
	}
}

func fill(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}
