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

// Backward accumulates the weight and bias gradients and returns the
// input gradient (see backward).
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, true) }

// BackwardParams accumulates the weight and bias gradients only. It is
// the backward of a network's first layer, whose input gradient nobody
// reads; the parameter gradients equal Backward's bit for bit.
func (c *Conv2D) BackwardParams(grad *tensor.Tensor) { c.backward(grad, false) }

// backward runs the convolution's backward as two GEMMs per sample,
// split over samples across the worker pool, and returns the input
// gradient when inputGrad is set (nil otherwise). Both GEMMs add each
// element's products in the order of the per-tap scatter loop they
// replaced, so the gradients do not depend on the kernel path or the
// worker count:
//
//   - dW: sample n's partial dWᵀ = col·goutᵀ ([InC·K·K, OutC], from the
//     im2col matrix and the transposed output gradient) sums every
//     element from +0 in ascending output position; padding taps add
//     ±0, which changes nothing. The partials are then added into
//     Weight.Grad in sample order, whatever the split.
//   - dX: W′·G, where W′[ci, (f,ky,kx)] = W[f,ci,ky,kx] and G is the
//     output gradient lowered by tensor.Im2colGradInto, sums each input
//     element over (f, ky, kx) ascending.
//
// The one difference from the tap loop is on non-finite values: the tap
// loop skipped padding taps and zero weights, while the GEMMs multiply
// them, so a 0·Inf there is NaN here.
func (c *Conv2D) backward(grad *tensor.Tensor, inputGrad bool) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward called before Forward(train=true)")
	}
	n := c.x.Dim(0)
	h, w, oh, ow := c.cachedInH, c.cachedInW, c.cachedOutH, c.cachedOutW
	k, st, pad := c.Kernel, c.Stride, c.Pad
	inPlane, outPlane := h*w, oh*ow
	if grad.Size() != n*c.OutC*outPlane {
		panic(fmt.Sprintf("nn: Conv2D %s gradient shape %v, want [%d %d %d %d]", c.Weight.Name, grad.Shape(), n, c.OutC, oh, ow))
	}
	rows := c.InC * k * k  // im2col rows (ci, ky, kx)
	taps := c.OutC * k * k // lowered-gradient rows (f, ky, kx)
	gd := grad.Data()

	partials := c.scratch.GetDirty(n, rows*c.OutC)
	defer c.scratch.Put(partials)
	ops := rows * outPlane * c.OutC
	var dx, wT *tensor.Tensor
	if inputGrad {
		dx = tensor.New(n, c.InC, h, w)
		wT = c.scratch.GetDirty(c.InC, taps)
		defer c.scratch.Put(wT)
		wd, wtd := c.Weight.Value.Data(), wT.Data()
		for f := 0; f < c.OutC; f++ {
			for ci := 0; ci < c.InC; ci++ {
				copy(wtd[ci*taps+f*k*k:ci*taps+(f+1)*k*k], wd[(f*c.InC+ci)*k*k:(f*c.InC+ci+1)*k*k])
			}
		}
		ops += c.InC * taps * inPlane
	}

	// Each chunk of samples is at least convParallelOps multiply-adds,
	// so small convolutions stay on the calling goroutine.
	tensor.ParallelFor(n, 1+convParallelOps/ops, func(lo, hi int) {
		col := c.scratch.GetDirty(rows, outPlane)
		goutT := c.scratch.GetDirty(outPlane, c.OutC)
		var gcol *tensor.Tensor
		if inputGrad {
			gcol = c.scratch.GetDirty(taps, inPlane)
		}
		cd, gtd := col.Data(), goutT.Data()
		for ni := lo; ni < hi; ni++ {
			gout := gd[ni*c.OutC*outPlane : (ni+1)*c.OutC*outPlane]
			tensor.Im2colInto(cd, c.x, ni, k, st, pad)
			for f := 0; f < c.OutC; f++ {
				for p, v := range gout[f*outPlane : (f+1)*outPlane] {
					gtd[p*c.OutC+f] = v
				}
			}
			tensor.Gemm(partials.Data()[ni*rows*c.OutC:(ni+1)*rows*c.OutC], cd, gtd, rows, outPlane, c.OutC)
			if inputGrad {
				tensor.Im2colGradInto(gcol.Data(), gout, c.OutC, h, w, k, st, pad)
				tensor.Gemm(dx.Data()[ni*c.InC*inPlane:(ni+1)*c.InC*inPlane], wT.Data(), gcol.Data(), c.InC, taps, inPlane)
			}
		}
		c.scratch.Put(col)
		c.scratch.Put(goutT)
		if inputGrad {
			c.scratch.Put(gcol)
		}
	})

	dwd, pd := c.Weight.Grad.Data(), partials.Data()
	for ni := 0; ni < n; ni++ {
		part := pd[ni*rows*c.OutC : (ni+1)*rows*c.OutC]
		for f := 0; f < c.OutC; f++ {
			dw := dwd[f*rows : (f+1)*rows]
			for r := range dw {
				dw[r] += part[r*c.OutC+f]
			}
		}
	}
	if c.Bias != nil {
		bd := c.Bias.Grad.Data()
		for ni := 0; ni < n; ni++ {
			for f := 0; f < c.OutC; f++ {
				var s float32
				for _, v := range gd[(ni*c.OutC+f)*outPlane : (ni*c.OutC+f+1)*outPlane] {
					s += v
				}
				bd[f] += s
			}
		}
	}
	return dx
}

// ReleaseTraining drops the last training forward's input and the
// scratch pool's buffers (see Layer).
func (c *Conv2D) ReleaseTraining() {
	c.x = nil
	c.scratch = tensor.Pool{}
}

// Params returns the layer parameters.
func (c *Conv2D) Params() []*Param {
	if c.Bias == nil {
		return []*Param{c.Weight}
	}
	return []*Param{c.Weight, c.Bias}
}
