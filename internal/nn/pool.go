package nn

import (
	"fmt"
	"math"
	"slices"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW inputs. The DDNN paper's ConvP
// block uses a 3×3 pool with stride 2 and padding 1, halving each spatial
// dimension of a power-of-two input.
type MaxPool2D struct {
	Kernel, Stride, Pad int

	argmax   []int32 // flat input index of each output's max, for backward
	inShape  []int
	outShape []int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a max-pooling layer.
func NewMaxPool2D(kernel, stride, pad int) *MaxPool2D {
	return &MaxPool2D{Kernel: kernel, Stride: stride, Pad: pad}
}

// OutSize returns the spatial output size for an input of size in.
func (p *MaxPool2D) OutSize(in int) int {
	return (in+2*p.Pad-p.Kernel)/p.Stride + 1
}

// Forward computes the max pool for x of shape [N, C, H, W]. Padded
// locations never win the max (they are treated as -inf).
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := p.checkInput(x)
	y := tensor.New(n, c, p.OutSize(h), p.OutSize(w))
	if train {
		// Every forward writes each output's argmax, so the last step's
		// slice is reused as it is.
		p.argmax = slices.Grow(p.argmax[:0], y.Size())[:y.Size()]
		p.inShape = x.Shape()
		p.outShape = y.Shape()
	}
	p.forwardInto(y, x, train)
	return y
}

// ForwardPooled is the inference forward against a tensor pool; the
// caller owns the returned tensor and should Put it back when done.
func (p *MaxPool2D) ForwardPooled(x *tensor.Tensor, pool *tensor.Pool) *tensor.Tensor {
	n, c, h, w := p.checkInput(x)
	y := pool.GetDirty(n, c, p.OutSize(h), p.OutSize(w))
	p.forwardInto(y, x, false)
	return y
}

func (p *MaxPool2D) checkInput(x *tensor.Tensor) (n, c, h, w int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D input shape %v, want 4-D", x.Shape()))
	}
	return x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
}

// forwardInto scans each output's pooling window with the bounds hoisted
// out of the inner loops: the window's valid row/column ranges are
// clipped once, so the hot loop is branch-free apart from the compare.
// The scan order (window row-major) matches the original per-element
// bounds-checked loop, so the winning index on ties is unchanged. A
// value wins only when it compares greater than the running maximum,
// which starts at -Inf: NaN never wins — a window with no value above
// -Inf keeps -Inf and its first in-bounds element as the argmax — and
// this scan — with or without
// the argmax bookkeeping — is the pool oracle the fused ConvP kernel is
// tested against. The n·C planes are independent, so big pools are
// split over them across the worker pool (each chunk at least
// convParallelOps window reads) with unchanged results.
func (p *MaxPool2D) forwardInto(y, x *tensor.Tensor, train bool) {
	planes := x.Dim(0) * x.Dim(1)
	grain := 1 + convParallelOps/(y.Dim(2)*y.Dim(3)*p.Kernel*p.Kernel+1)
	if planes <= grain || tensor.MaxWorkers() == 1 {
		// No closure: the pooled inference forward stays allocation-free.
		p.planesInto(y, x, 0, planes, train)
		return
	}
	tensor.ParallelFor(planes, grain, func(lo, hi int) {
		p.planesInto(y, x, lo, hi, train)
	})
}

// planesInto pools planes [lo, hi) of x into y (see forwardInto).
func (p *MaxPool2D) planesInto(y, x *tensor.Tensor, lo, hi int, train bool) {
	h, w := x.Dim(2), x.Dim(3)
	oh, ow := y.Dim(2), y.Dim(3)
	xd, yd := x.Data(), y.Data()
	inPlane, outPlane := h*w, oh*ow
	negInf := float32(math.Inf(-1))
	for plane := lo; plane < hi; plane++ {
		in := xd[plane*inPlane : (plane+1)*inPlane]
		out := yd[plane*outPlane : (plane+1)*outPlane]
		for oy := 0; oy < oh; oy++ {
			y0 := oy*p.Stride - p.Pad
			iy0, iy1 := y0, y0+p.Kernel
			if iy0 < 0 {
				iy0 = 0
			}
			if iy1 > h {
				iy1 = h
			}
			orow := out[oy*ow : (oy+1)*ow]
			for ox := 0; ox < ow; ox++ {
				x0 := ox*p.Stride - p.Pad
				ix0, ix1 := x0, x0+p.Kernel
				if ix0 < 0 {
					ix0 = 0
				}
				if ix1 > w {
					ix1 = w
				}
				best := negInf
				bestIdx := int32(iy0*w + ix0)
				for iy := iy0; iy < iy1; iy++ {
					row := in[iy*w+ix0 : iy*w+ix1]
					for i, v := range row {
						if v > best {
							best = v
							bestIdx = int32(iy*w + ix0 + i)
						}
					}
				}
				orow[ox] = best
				if train {
					p.argmax[plane*outPlane+oy*ow+ox] = int32(plane*inPlane) + bestIdx
				}
			}
		}
	}
}

// Backward scatters each output gradient to the input location that won the
// max during the forward pass.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward called before Forward(train=true)")
	}
	dx := tensor.New(p.inShape...)
	dxd, gd := dx.Data(), grad.Data()
	for i, src := range p.argmax {
		dxd[src] += gd[i]
	}
	return dx
}

// ReleaseTraining drops the argmax of the last training forward.
func (p *MaxPool2D) ReleaseTraining() { p.argmax, p.inShape, p.outShape = nil, nil, nil }

// Params returns nil: pooling has no learnable parameters.
func (p *MaxPool2D) Params() []*Param { return nil }
