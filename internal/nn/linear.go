package nn

import (
	"fmt"
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Linear is a fully connected layer computing y = x·W + b for x of shape
// [N, in] and W of shape [in, out].
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param // nil when the layer has no bias

	x *tensor.Tensor // cached input for backward
}

var _ Layer = (*Linear)(nil)

// NewLinear constructs a fully connected layer with Glorot-initialized
// weights and zero bias.
func NewLinear(rng *rand.Rand, name string, in, out int, withBias bool) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".weight", in, out),
	}
	l.Weight.Value.FillGlorot(rng, in, out)
	if withBias {
		l.Bias = NewParam(name+".bias", out)
	}
	return l
}

// Forward computes x·W + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear %s input shape %v, want [N %d]", l.Weight.Name, x.Shape(), l.In))
	}
	if train {
		l.x = x
	}
	y := tensor.MatMul(x, l.Weight.Value)
	if l.Bias != nil {
		n := y.Dim(0)
		bd := l.Bias.Value.Data()
		for i := 0; i < n; i++ {
			row := y.Row(i)
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	return y
}

// ForwardPooled is the inference forward against a tensor pool; the
// caller owns the returned tensor and should Put it back when done.
// Unlike Forward it accepts any input whose per-sample element count is
// In — a [N, F, H, W] feature map flattens implicitly, sparing callers
// the Reshape view (an allocation on the serving hot path).
func (l *Linear) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	n := x.Dim(0)
	if x.Size()/n != l.In {
		panic(fmt.Sprintf("nn: Linear %s input shape %v, want %d elements per sample", l.Weight.Name, x.Shape(), l.In))
	}
	y := p.GetDirty(n, l.Out)
	tensor.Gemm(y.Data(), x.Data(), l.Weight.Value.Data(), n, l.In, l.Out)
	if l.Bias != nil {
		bd := l.Bias.Value.Data()
		for i := 0; i < n; i++ {
			row := y.Row(i)
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	return y
}

// Backward accumulates dW = xᵀ·dy and db = Σ dy, and returns dx = dy·Wᵀ.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: Linear.Backward called before Forward(train=true)")
	}
	dW := tensor.MatMulTransA(l.x, grad)
	l.Weight.Grad.Add(dW)
	if l.Bias != nil {
		gb := l.Bias.Grad.Data()
		n := grad.Dim(0)
		for i := 0; i < n; i++ {
			row := grad.Row(i)
			for j := range row {
				gb[j] += row[j]
			}
		}
	}
	// dx [N,in] = dy [N,out] · Wᵀ; W is stored [in,out], and
	// MatMulTransB(dy, W) computes dy·Wᵀ without materializing the
	// transpose.
	return tensor.MatMulTransB(grad, l.Weight.Value)
}

// ReleaseTraining drops the last training forward's input.
func (l *Linear) ReleaseTraining() { l.x = nil }

// Params returns the layer parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}
