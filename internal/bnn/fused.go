package bnn

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// This file is the fused inference pass of the ConvP block on bit
// planes (ForwardPlanes, ForwardPacked), the pass every edge and cloud
// block serves on. A float map runs the layered forward instead
// (ConvP.ForwardPooled), and a device's byte frames the integer block
// (frames.go). The pass walks the batch sample by sample and each sample
// band by band: the band's XNOR convolution (xnorconv.go) reads its
// rows from the caller's planes in place and writes each count as an
// int16 record, and the band's pooled rows are pooled and thresholded
// from the records by tensor.PoolFrameThreshold, the device block's own
// epilogue kernel. Nothing is a float; the kernel path only picks the
// kernels it runs.
//
// Numeric contract: the output is bit-identical to the layered
// composition (ConvP.Forward in inference mode) on the same map as
// floats. A bit-plane input is ternary, so every convolution output is
// the exact integer m in [−9C, 9C] the lowered GEMM computes, and so is
// every pooled value: the pool of exact values is the same maximum in
// any order, and its padding (−32768 in the records) is below every
// count, as −Inf is below every float. Batch normalization followed by
// the `>= 0` activation is then a predicate on that finite set.
// SyncWeights evaluates nn.BatchNorm.InferenceAffine's own expression —
// a rounded multiply and a rounded add — on every integer of the range
// once and stores where it flips: the epilogue is one compare per
// output, s·m > t1 with s = ±1 and t1 an int16 (an int16 bound when the
// output is constant: scale 0, or a NaN parameter). Rounding is
// monotone, so a single flip point exists and the compare reproduces the
// float epilogue exactly, by construction; deriveThresholds checks every
// point anyway.

// fusedScratchBudget caps one worker's scratch at 32 KB so the band's
// segments and records and an output row's windows stay cache-resident. A block too
// wide for even a two-row band exceeds it.
const fusedScratchBudget = 32 << 10 / 4 // floats

// MaxPlaneChannels is the most input channels a bit-plane block takes:
// its counts, up to 9C in magnitude, are int16 records, and int16's
// bounds stand for the constant thresholds.
const MaxPlaneChannels = (math.MaxInt16 - 1) / 9

// fusedParallelOps is the per-sample sign-add count above which a
// forward is split over samples across the worker pool, as nn.Conv2D
// splits its GEMMs.
const fusedParallelOps = 1 << 15

// fusedPlan is the scratch layout for one input geometry: the row
// segments of a band's padded rows (xnorWindow.segments), the windows of
// one output row (xnorWindow.assemble), then per filter band+2 int16
// records of rs slots — the row above the band (the image's padding, or
// the previous band's last row, which the band's first pooled row still
// needs), the band's rows, and the row below an image of odd height.
type fusedPlan struct {
	c, h, w, f int
	ph, pw     int // pooled output size
	win        xnorWindow
	rsw        int // words per padded row of a bit plane (see xnorconv.go)
	band       int // convolution rows per band (even)
	rs, ds     int // int16 per record (tensor.FrameRowLen) and per filter
	segLen     int // floats of the segments, two per word plus alignment slack
	winLen     int // floats of the windows, likewise
	size       int // segLen, winLen and the records' floats
}

func planFused(c, h, w, f int) fusedPlan {
	pl := fusedPlan{c: c, h: h, w: w, f: f, ph: (h-1)/2 + 1, pw: (w-1)/2 + 1, win: windowOf(c)}
	pl.rsw = xnorRowWords(c, w+2)
	pl.rs = tensor.FrameRowLen(w)
	pl.winLen = 2*w*(2*pl.win.ww+1) + 1
	layout := func(band int) {
		pl.band = band
		pl.segLen = 2*(band+2)*w*pl.win.segWords() + 1
		pl.ds = (band + 2) * pl.rs
		pl.size = pl.segLen + pl.winLen + (f*pl.ds+1)/2
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

// bitsRange runs samples [n0, n1) and every filter with one scratch
// buffer borrowed from p: each band is read from the planes in place and
// convolved by XNOR into the records, and each filter's pooled rows end
// in its integer threshold, written as its run of the sample's PackSigns
// bits.
func (b *ConvP) bitsRange(path tensor.KernelPath, in Planes, out []byte, stride int, pl fusedPlan, p *tensor.Pool, n0, n1 int) {
	buf := p.GetDirty(pl.size)
	defer p.Put(buf)
	scratch := buf.Data()
	seg := wordView(scratch[:pl.segLen])
	win := wordView(scratch[pl.segLen : pl.segLen+pl.winLen])
	rec := unsafe.Slice((*int16)(unsafe.Pointer(&scratch[pl.segLen+pl.winLen])), pl.f*pl.ds)
	rs, ds := pl.rs, pl.ds
	pad := func(r []int16) {
		for i := range r {
			r[i] = math.MinInt16
		}
	}
	// The convolution writes only image columns of the band's rows, so
	// the pool's padding in each record — column −1 and, for an odd
	// width, column w's odd slot — is set once, and so are the rows above
	// and below the image when one band covers it.
	for r := 0; r < len(rec); r += rs {
		rec[r] = math.MinInt16
		if pl.w%2 == 1 {
			rec[r+1+pl.w/2] = math.MinInt16
		}
	}
	bands := pl.band < pl.h
	for f := 0; f < pl.f; f++ {
		pad(rec[f*ds : f*ds+rs])
		if pl.h%2 == 1 {
			pad(rec[f*ds+(pl.h%pl.band+1)*rs : f*ds+(pl.h%pl.band+2)*rs])
		}
	}
	for ni := n0; ni < n1; ni++ {
		signs := out[ni*stride : (ni+1)*stride]
		for r0 := 0; r0 < pl.h; r0 += pl.band {
			rows := min(pl.band, pl.h-r0)
			for f := 0; bands && f < pl.f; f++ {
				fr := rec[f*ds : (f+1)*ds]
				if r0 == 0 {
					pad(fr[:rs])
				} else {
					copy(fr[:rs], fr[pl.band*rs:(pl.band+1)*rs]) // the previous band's last row
				}
				if rows%2 == 1 { // the last band of an odd height: its last pooled row reads row h
					pad(fr[(rows+1)*rs : (rows+2)*rs])
				}
			}
			// Padded rows r0 .. r0+rows+1 are input rows r0−1 .. r0+rows.
			sgn, nz := in.rows(ni, r0)
			xnorConv3x3(path, rec[rs:], ds, b.Conv.xnor, sgn, nz, win, seg, &pl, rows)
			py0, py1 := r0/2, (r0+rows+1)/2
			for f, th := range b.thresh {
				tensor.PoolFrameThreshold(path, signs, (f*pl.ph+py0)*pl.pw, rec[f*ds:(f+1)*ds], pl.w, py1-py0, th.s, th.t1)
			}
		}
	}
}

// threshold is one filter's integer epilogue: the block outputs +1
// exactly when s·m > t1, m being the window's maximum convolution output
// and s ±1 — the compare tensor.PoolFrameThreshold makes. t1 is an
// int16 bound for an output that is constant.
type threshold struct{ s, t1 int16 }

// deriveThresholds writes filter f's threshold for convolutions whose
// outputs are m·unit for the integers m in [−k, k] into dst[f],
// reusing dst when its length fits: k = 9c and unit 1 for bit planes of
// c channels, and k = 9·c·255, unit 2⁻⁸ for byte frames of c channels
// (frames.go). It evaluates bn's inference transform exactly as the
// float epilogue does, float32(scale·v) + shift ≥ 0, at v = m·unit for
// every m and records the one point where the answer flips (see the
// file comment), then confirms the compare on every point. k must leave
// room below int16's bounds, which stand for "never" and "always".
func deriveThresholds(dst []threshold, bn *nn.BatchNorm, k int, unit float32) []threshold {
	if k >= math.MaxInt16 {
		panic(fmt.Sprintf("bnn: batch norm %s: outputs up to %d do not fit int16 (see MaxPlaneChannels)", bn.Gamma.Name, k))
	}
	if len(dst) != bn.C {
		dst = make([]threshold, bn.C)
	}
	for f := range dst {
		scale, shift := bn.InferenceAffine(f)
		pass := func(m int) bool { return float32(scale*(float32(m)*unit))+shift >= 0 }
		th := threshold{s: 1, t1: math.MaxInt16} // never +1
		switch lo, hi := pass(-k), pass(k); {
		case lo && hi:
			th.t1 = math.MinInt16 // always +1
		case hi: // false then true: m ≥ τ, i.e. m > τ−1
			m := -k
			for !pass(m) {
				m++
			}
			th.t1 = int16(m - 1)
		case lo: // true then false: m ≤ τ, i.e. −m > −τ−1
			m := k
			for !pass(m) {
				m--
			}
			th = threshold{s: -1, t1: int16(-m - 1)}
		}
		for m := -k; m <= k; m++ {
			if pass(m) != (int(th.s)*m > int(th.t1)) {
				panic(fmt.Sprintf("bnn: batch norm %s channel %d is not monotone at %d (scale %g, shift %g)", bn.Gamma.Name, f, m, scale, shift))
			}
		}
		dst[f] = th
	}
	return dst
}
