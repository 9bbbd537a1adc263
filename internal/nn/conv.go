package nn

import (
	"fmt"
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with square kernels. The
// DDNN paper uses 3×3 kernels with stride 1 and padding 1 everywhere; the
// implementation supports general kernel/stride/padding so the cloud
// sections can differ if desired.
type Conv2D struct {
	InC, OutC              int
	Kernel, Stride, Pad    int
	Weight                 *Param // [OutC, InC, K, K]
	Bias                   *Param // [OutC], nil when disabled
	x                      *tensor.Tensor
	cachedInH, cachedInW   int
	cachedOutH, cachedOutW int

	// w2d views the weights as the [OutC, InC·K·K] GEMM operand of the
	// im2col forward. It shares storage with Weight.Value, so weight
	// updates (and binarization syncs) need no re-pack.
	w2d *tensor.Tensor

	// scratch recycles per-sample im2col buffers across forward calls;
	// each concurrent sample borrows its own buffer.
	scratch tensor.Pool
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a convolution layer with He-initialized weights.
func NewConv2D(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int, withBias bool) *Conv2D {
	c := &Conv2D{
		InC:    inC,
		OutC:   outC,
		Kernel: kernel,
		Stride: stride,
		Pad:    pad,
		Weight: NewParam(name+".weight", outC, inC, kernel, kernel),
	}
	c.Weight.Value.FillHe(rng, inC*kernel*kernel)
	c.w2d = c.Weight.Value.Reshape(outC, inC*kernel*kernel)
	if withBias {
		c.Bias = NewParam(name+".bias", outC)
	}
	return c
}

// OutSize returns the spatial output size for an input of size in.
func (c *Conv2D) OutSize(in int) int {
	return (in+2*c.Pad-c.Kernel)/c.Stride + 1
}

// Forward computes the convolution for x of shape [N, InC, H, W] by
// lowering each sample to its im2col matrix and running one tensor.Gemm
// per sample (see forwardInto). Binarized layers take the same GEMM: a
// ±1 weight makes every product exact. Results match the tap-loop
// reference the tests keep (forwardTaps) exactly.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := c.checkInput(x)
	oh, ow := c.OutSize(h), c.OutSize(w)
	// Cache only during training: backward needs the shapes, and inference
	// must stay free of writes so concurrent sessions can share the layer.
	if train {
		c.x = x
		c.cachedInH, c.cachedInW, c.cachedOutH, c.cachedOutW = h, w, oh, ow
	}
	y := tensor.New(n, c.OutC, oh, ow)
	c.forwardInto(y, x, nil)
	return y
}

// ForwardPooled is the inference forward against a tensor pool: the
// returned tensor comes from p (the caller owns it and should Put it
// back when done). A nil pool falls back to plain allocation.
func (c *Conv2D) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	n, h, w := c.checkInput(x)
	y := p.GetDirty(n, c.OutC, c.OutSize(h), c.OutSize(w))
	c.forwardInto(y, x, p)
	return y
}

func (c *Conv2D) checkInput(x *tensor.Tensor) (n, h, w int) {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D %s input shape %v, want [N %d H W]", c.Weight.Name, x.Shape(), c.InC))
	}
	return x.Dim(0), x.Dim(2), x.Dim(3)
}

// convParallelOps is the per-GEMM multiply-add count above which a
// forward is split across the worker pool: over samples when the batch
// has several, over output-channel row blocks for big single-sample
// convolutions (the cloud section). Small convolutions stay serial —
// goroutine handoff would dominate.
const convParallelOps = 1 << 15

// forwardInto computes the convolution into y. Each sample's input is
// lowered to a [InC·K·K, oh·ow] im2col matrix (borrowed from p, or from
// the layer's own scratch pool when p is nil) and multiplied by the
// [OutC, InC·K·K] weight view. The im2col row order equals the tap
// loop's (channel, kernel-row, kernel-column) accumulation order and the
// GEMM accumulates rows in ascending order, so every output element sums
// its products in exactly the tap loop's sequence.
func (c *Conv2D) forwardInto(y, x *tensor.Tensor, p *tensor.Pool) {
	n := x.Dim(0)
	oh, ow := y.Dim(2), y.Dim(3)
	rows := c.InC * c.Kernel * c.Kernel
	cols := oh * ow
	scratch := p
	if scratch == nil {
		scratch = &c.scratch
	}
	wd := c.w2d.Data()
	outPlane := c.OutC * cols

	ops := c.OutC * rows * cols
	switch {
	case n > 1 && ops >= convParallelOps && tensor.MaxWorkers() > 1:
		// Intra-batch parallelism: samples are independent, each worker
		// borrows its own im2col buffer.
		tensor.ParallelFor(n, 1, func(lo, hi int) {
			buf := scratch.GetDirty(rows, cols)
			defer scratch.Put(buf)
			for ni := lo; ni < hi; ni++ {
				tensor.Im2colInto(buf.Data(), x, ni, c.Kernel, c.Stride, c.Pad)
				tensor.Gemm(y.Data()[ni*outPlane:(ni+1)*outPlane], wd, buf.Data(), c.OutC, rows, cols)
			}
		})
	case n == 1 && c.OutC >= 8 && ops >= convParallelOps && tensor.MaxWorkers() > 1:
		// Single big sample (cloud-section convs): lower once, then split
		// the GEMM over output-channel row blocks.
		buf := scratch.GetDirty(rows, cols)
		defer scratch.Put(buf)
		tensor.Im2colInto(buf.Data(), x, 0, c.Kernel, c.Stride, c.Pad)
		yd := y.Data()
		tensor.ParallelFor(c.OutC, 4, func(lo, hi int) {
			tensor.Gemm(yd[lo*cols:hi*cols], wd[lo*rows:hi*rows], buf.Data(), hi-lo, rows, cols)
		})
	default:
		buf := scratch.GetDirty(rows, cols)
		for ni := 0; ni < n; ni++ {
			tensor.Im2colInto(buf.Data(), x, ni, c.Kernel, c.Stride, c.Pad)
			tensor.Gemm(y.Data()[ni*outPlane:(ni+1)*outPlane], wd, buf.Data(), c.OutC, rows, cols)
		}
		scratch.Put(buf)
	}

	if c.Bias != nil {
		yd, bd := y.Data(), c.Bias.Value.Data()
		for ni := 0; ni < n; ni++ {
			for f := 0; f < c.OutC; f++ {
				out := yd[ni*outPlane+f*cols : ni*outPlane+(f+1)*cols]
				bv := bd[f]
				for i := range out {
					out[i] += bv
				}
			}
		}
	}
}

// colRange returns the half-open range of output columns whose sampled
// input column ox*st+dx lies within [0, iw).
func colRange(ow, iw, dx, st int) (int, int) {
	ox0 := 0
	if dx < 0 {
		ox0 = (-dx + st - 1) / st
	}
	ox1 := ow
	if maxOx := (iw - 1 - dx) / st; maxOx+1 < ox1 {
		ox1 = maxOx + 1
	}
	if ox1 < ox0 {
		ox1 = ox0
	}
	return ox0, ox1
}

// Backward accumulates weight/bias gradients and returns the input
// gradient.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward called before Forward(train=true)")
	}
	n := c.x.Dim(0)
	h, w, oh, ow := c.cachedInH, c.cachedInW, c.cachedOutH, c.cachedOutW
	k, st, pad := c.Kernel, c.Stride, c.Pad
	dx := tensor.New(n, c.InC, h, w)
	xd, gd, dxd := c.x.Data(), grad.Data(), dx.Data()
	wd, dwd := c.Weight.Value.Data(), c.Weight.Grad.Data()
	inPlane, outPlane := h*w, oh*ow

	for ni := 0; ni < n; ni++ {
		xBase := ni * c.InC * inPlane
		gBase := ni * c.OutC * outPlane
		for f := 0; f < c.OutC; f++ {
			gout := gd[gBase+f*outPlane : gBase+(f+1)*outPlane]
			if c.Bias != nil {
				var s float32
				for _, v := range gout {
					s += v
				}
				c.Bias.Grad.Data()[f] += s
			}
			for ci := 0; ci < c.InC; ci++ {
				in := xd[xBase+ci*inPlane : xBase+(ci+1)*inPlane]
				din := dxd[xBase+ci*inPlane : xBase+(ci+1)*inPlane]
				wBase := (f*c.InC + ci) * k * k
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						widx := wBase + ky*k + kx
						dy, dxo := ky-pad, kx-pad
						// dW[f,ci,ky,kx] += Σ gout[oy,ox] * in[oy*st+dy, ox*st+dxo]
						// dIn[iy,ix]     += Σ gout[oy,ox] * w  (scatter)
						dwd[widx] += convTapGradW(gout, in, oh, ow, h, w, dy, dxo, st)
						convTapGradX(din, gout, wd[widx], oh, ow, h, w, dy, dxo, st)
					}
				}
			}
		}
	}
	return dx
}

func convTapGradW(gout, in []float32, oh, ow, ih, iw, dy, dx, st int) float32 {
	var s float32
	for oy := 0; oy < oh; oy++ {
		iy := oy*st + dy
		if iy < 0 || iy >= ih {
			continue
		}
		grow := gout[oy*ow : (oy+1)*ow]
		irow := in[iy*iw : (iy+1)*iw]
		ox0, ox1 := colRange(ow, iw, dx, st)
		if st == 1 {
			src := irow[ox0+dx : ox1+dx]
			g := grow[ox0:ox1]
			for i, gv := range g {
				s += gv * src[i]
			}
			continue
		}
		for ox := ox0; ox < ox1; ox++ {
			s += grow[ox] * irow[ox*st+dx]
		}
	}
	return s
}

func convTapGradX(din, gout []float32, wv float32, oh, ow, ih, iw, dy, dx, st int) {
	if wv == 0 {
		return
	}
	for oy := 0; oy < oh; oy++ {
		iy := oy*st + dy
		if iy < 0 || iy >= ih {
			continue
		}
		grow := gout[oy*ow : (oy+1)*ow]
		drow := din[iy*iw : (iy+1)*iw]
		ox0, ox1 := colRange(ow, iw, dx, st)
		if st == 1 {
			dst := drow[ox0+dx : ox1+dx]
			g := grow[ox0:ox1]
			for i, gv := range g {
				dst[i] += wv * gv
			}
			continue
		}
		for ox := ox0; ox < ox1; ox++ {
			drow[ox*st+dx] += wv * grow[ox]
		}
	}
}

// Params returns the layer parameters.
func (c *Conv2D) Params() []*Param {
	if c.Bias == nil {
		return []*Param{c.Weight}
	}
	return []*Param{c.Weight, c.Bias}
}
