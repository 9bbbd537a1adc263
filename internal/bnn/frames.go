package bnn

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// This file is the integer inference kernel of a device ConvP block,
// whose input is camera frames: bytes q, standing for the values q/256
// the layered forward (ConvP.Forward) and training see. Every partial
// sum of ±1 taps over q/256 is k/256 for an integer |k| ≤ 9·C·255 < 2²⁴,
// so the float convolution is exact in any order and equals the integer
// convolution over q, scaled. The 3×3 max pool of exact values is the
// same in either domain, and batch norm plus the sign is a predicate on
// the finite set of pooled integers m, which SyncWeights turns into one
// compare per output by evaluating the float epilogue's own expression
// at v = m·2⁻⁸ for every m (deriveThresholds). The block therefore
// writes the PackSigns bits the layered forward's ±1 map packs to, bit
// for bit, on every kernel path: frame bytes in, a zero-padded byte
// band, int16 sums (tensor.ConvFrame3x3), an int16 pool ending in the
// threshold (tensor.PoolFrameThreshold), bits out.

// frameUnit is the value of one frame grid step, 2⁻⁸.
const frameUnit = 1.0 / 256

// frameEpilogue is what a Frames block derives from its parameters in
// SyncWeights: the convolution's byte weight table and each filter's
// integer threshold (see threshold).
type frameEpilogue struct {
	weights []int8
	thresh  []threshold
}

// sync re-derives the epilogue of b.
func (fe *frameEpilogue) sync(b *ConvP) {
	conv := b.Conv.inner
	if conv.InC > tensor.FrameMaxChannels {
		panic(fmt.Sprintf("bnn: frame block %s has %d channels, at most %d fit int16 sums", conv.Weight.Name, conv.InC, tensor.FrameMaxChannels))
	}
	fe.weights = tensor.FrameWeights(fe.weights, conv.Weight.Value.Data(), conv.OutC, conv.InC)
	fe.thresh = deriveThresholds(fe.thresh, b.BN, 9*conv.InC*255, frameUnit)
}

// framePlan is the scratch layout of ForwardFrames for one geometry:
// per filter, h+1 convolution row records of rs int16 (the first is row
// −1, the pool's padding), then the zero-padded byte band of c planes,
// h+2 rows of wp bytes each.
type framePlan struct {
	c, h, w, f int
	wp, plane  int
	rs, ds     int // record length; records per filter × rs
	size       int // scratch bytes: records, band and its slack
}

func planFrames(c, h, w, f int) framePlan {
	pl := framePlan{c: c, h: h, w: w, f: f, wp: w + 2, rs: tensor.FrameRowLen(w)}
	pl.plane = (h + 2) * pl.wp
	pl.ds = (h + 1) * pl.rs
	pl.size = 2*f*pl.ds + c*pl.plane + tensor.FrameBandSlack
	return pl
}

// ForwardFrames is the inference forward of a device block on n byte
// frames of c×h×w values each (h and w even), sample after sample: it
// returns one PackSigns run of PackedSize(F·h/2·w/2) bytes per sample,
// back to back, from p (PutBytes it back once consumed) — the signs
// Forward computes on the frames' values q/256, under the epilogue of
// the last SyncWeights. It draws only its output and one scratch buffer
// per worker from p.
func (b *ConvP) ForwardFrames(frames []byte, n, h, w int, p *tensor.Pool) []byte {
	conv := b.Conv.inner
	if len(frames) != n*conv.InC*h*w || h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("bnn: ConvP %s: %d frame bytes for %d samples of [%d %d %d] (sides must be even)", conv.Weight.Name, len(frames), n, conv.InC, h, w))
	}
	if len(b.frames.thresh) != conv.OutC {
		panic(fmt.Sprintf("bnn: ConvP %s has no frame epilogue; set Frames and call SyncWeights", conv.Weight.Name))
	}
	pl := planFrames(conv.InC, h, w, conv.OutC)
	stride := PackedSize(pl.f * (h / 2) * (w / 2))
	out := p.GetBytes(n * stride)
	clear(out)
	path := tensor.CurrentKernelPath()
	if n > 1 && pl.f*pl.c*9*h*w >= fusedParallelOps && tensor.MaxWorkers() > 1 {
		tensor.ParallelFor(n, 1, func(lo, hi int) { b.framesRange(path, frames, out, stride, pl, p, lo, hi) })
		return out
	}
	b.framesRange(path, frames, out, stride, pl, p, 0, n)
	return out
}

// framesRange runs samples [n0, n1) with one scratch buffer from p.
func (b *ConvP) framesRange(path tensor.KernelPath, frames, out []byte, stride int, pl framePlan, p *tensor.Pool, n0, n1 int) {
	buf := p.GetBytes(pl.size)
	defer p.PutBytes(buf)
	rec := unsafe.Slice((*int16)(unsafe.Pointer(&buf[0])), pl.f*pl.ds)
	band := buf[2*len(rec):]
	// The band's borders and the records' padding (row −1 and every
	// row's column −1) are never written by a sample, so they are set
	// once.
	clear(band)
	for f := 0; f < pl.f; f++ {
		recs := rec[f*pl.ds : (f+1)*pl.ds]
		for i := range recs[:pl.rs] {
			recs[i] = math.MinInt16
		}
		for r := pl.rs; r < len(recs); r += pl.rs {
			recs[r] = math.MinInt16
		}
	}
	fe := &b.frames
	size, pooled := pl.c*pl.h*pl.w, (pl.h/2)*(pl.w/2)
	for ni := n0; ni < n1; ni++ {
		frame := frames[ni*size : (ni+1)*size]
		for ci := 0; ci < pl.c; ci++ {
			dst := band[ci*pl.plane+pl.wp+1:]
			for y := 0; y < pl.h; y++ {
				copy(dst[y*pl.wp:], frame[:pl.w])
				frame = frame[pl.w:]
			}
		}
		tensor.ConvFrame3x3(path, rec, pl.ds, fe.weights, band, pl.c, pl.plane, pl.wp)
		signs := out[ni*stride : (ni+1)*stride]
		for f, th := range fe.thresh {
			tensor.PoolFrameThreshold(path, signs, f*pooled, rec[f*pl.ds:(f+1)*pl.ds], pl.w, pl.h/2, th.s, th.t1)
		}
	}
}
