package bnn

import (
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// This file is the fused inference kernel behind ConvP.ForwardPooled on
// the go and simd dispatch paths. It walks the batch sample by sample
// and each sample band by band: a band of input rows is copied once
// into a zero-padded scratch buffer, the sign convolution runs over it
// directly (tensor.ConvSign3x3 — no im2col matrix), and each pooled row
// the band completes is max-pooled, batch-normalized and binarized in
// one step (tensor.PoolAffineSignRow) straight into the ±1 output. The
// only float intermediate is the band's convolution output, which never
// leaves the worker's scratch.
//
// Numeric contract: the output is bit-identical to the layered
// composition (ForwardLayered, and ConvP.Forward in inference mode).
// Every convolution output is the same ascending (c, ky, kx) add/sub
// sequence from +0 the lowered GEMM performs, padding taps included;
// the pool scans its window row-major under "a value wins only if it
// compares greater", so NaN never wins; batch normalization is
// nn.BatchNorm.InferenceAffine's rounded multiply and rounded add; the
// activation is `>= 0` (−0 → +1, NaN → −1). Batch normalization is
// deliberately not refolded into a per-channel threshold on the pooled
// value: the device block convolves real-valued inputs, and a threshold
// computed in different arithmetic would flip values that land on the
// zero crossing.

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
	rsw        int // words per band row of a bit plane (see xnorconv.go)
	xbLen      int // the float band, or the bit planes sharing its storage
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
		// span, in the last plane too. The XNOR path's two bit planes and
		// window (words of two floats each, plus one float of alignment
		// slack) reuse the same storage.
		pl.xbLen = max((c-1)*pl.plane+2*pl.wp+2+span, 2*xnorScratchWords(c, w, band)+1)
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

// forwardFused is ForwardPooled on the go and simd paths.
func (b *ConvP) forwardFused(path tensor.KernelPath, x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	conv := b.Conv.inner
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
	wd, xw := b.Conv.inner.Weight.Value.Data(), b.Conv.xnor
	bits := newXnorScratch(xb, pl)
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
			if packTernaryBand(path, bits, sample, pl, r0, rows) {
				xnorConv3x3(path, conv, cs, xw, bits, pl, rows, f0, f1)
			} else {
				lowerBand(xb, sample, pl, r0, rows)
				tensor.ConvSign3x3(path, conv, cs, wd, xb, pl.c, pl.plane, wp, rows, f0, f1)
			}
			for f := f0; f < f1; f++ {
				seg := cb[f*cs : (f+1)*cs]
				for t := 1; t <= rows; t++ {
					seg[1+t*wp+pl.w], seg[1+t*wp+pl.w+1] = negInf, negInf
				}
				// Pooled row py covers convolution rows 2py−1..2py+1,
				// i.e. segment rows t−1..t+1 with t = 2py−r0+1.
				for py := r0 / 2; py < (r0+rows+1)/2; py++ {
					t := 2*py - r0 + 1
					top, mid := seg[(t-1)*wp:], seg[t*wp:]
					bot := mid // row 2py+1 is below the image: repeat one that is not
					if 2*py+1 < pl.h {
						bot = seg[(t+1)*wp:]
					}
					out := yd[((ni*pl.f+f)*pl.ph+py)*pl.pw:][:pl.pw]
					tensor.PoolAffineSignRow(path, out, top, mid, bot, scale[f], shift[f])
				}
				copy(seg[1:1+wp], seg[1+rows*wp:1+(rows+1)*wp])
			}
		}
	}
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
