package nn

import (
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// BatchNorm normalizes activations per channel. For 4-D [N, C, H, W] inputs
// statistics are computed per channel over N·H·W elements; for 2-D [N, D]
// inputs per feature over the batch. Running statistics are tracked with
// exponential smoothing for use at inference time, following the standard
// batch-normalization recipe used by the BNN blocks in the paper (Fig. 3).
type BatchNorm struct {
	C     int
	Eps   float32
	Gamma *Param
	Beta  *Param
	// Momentum is the smoothing factor applied to the previous running
	// statistic (0.9 keeps 90% of the old value each batch).
	Momentum float32
	// RunningMean and RunningVar are the inference-time statistics. They
	// are exported for serialization.
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	xhat   *tensor.Tensor
	invStd []float32
	shape  []int
}

var _ Layer = (*BatchNorm)(nil)

// NewBatchNorm constructs a batch-normalization layer over c channels with
// γ=1, β=0 and unit running variance.
func NewBatchNorm(name string, c int) *BatchNorm {
	bn := &BatchNorm{
		C:           c,
		Eps:         1e-5,
		Momentum:    0.9,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.Value.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

// dims splits an input shape into (batch, channels, spatial) sizes.
func (bn *BatchNorm) dims(x *tensor.Tensor) (n, s int) {
	switch x.Dims() {
	case 2:
		if x.Dim(1) != bn.C {
			panic(fmt.Sprintf("nn: BatchNorm %s input %v, want [N %d]", bn.Gamma.Name, x.Shape(), bn.C))
		}
		return x.Dim(0), 1
	case 4:
		if x.Dim(1) != bn.C {
			panic(fmt.Sprintf("nn: BatchNorm %s input %v, want [N %d H W]", bn.Gamma.Name, x.Shape(), bn.C))
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	default:
		panic(fmt.Sprintf("nn: BatchNorm input must be 2-D or 4-D, got %v", x.Shape()))
	}
}

// Forward normalizes x. With train=true batch statistics are used and the
// running statistics updated; otherwise the running statistics are applied.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, s := bn.dims(x)
	c := bn.C
	y := tensor.New(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	g, b := bn.Gamma.Value.Data(), bn.Beta.Value.Data()

	if !train {
		bn.inferInto(yd, xd, n, s)
		return y
	}

	m := float32(n * s)
	bn.xhat = tensor.New(x.Shape()...)
	bn.invStd = make([]float32, c)
	bn.shape = x.Shape()
	xh := bn.xhat.Data()
	rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
	for ci := 0; ci < c; ci++ {
		var sum float64
		iterChannel(n, c, s, ci, func(off int) {
			sum += float64(xd[off])
		})
		mean := float32(sum / float64(m))
		var ssq float64
		iterChannel(n, c, s, ci, func(off int) {
			d := xd[off] - mean
			ssq += float64(d) * float64(d)
		})
		variance := float32(ssq / float64(m))
		inv := float32(1 / math.Sqrt(float64(variance)+float64(bn.Eps)))
		bn.invStd[ci] = inv
		iterChannel(n, c, s, ci, func(off int) {
			h := (xd[off] - mean) * inv
			xh[off] = h
			yd[off] = g[ci]*h + b[ci]
		})
		rm[ci] = bn.Momentum*rm[ci] + (1-bn.Momentum)*mean
		rv[ci] = bn.Momentum*rv[ci] + (1-bn.Momentum)*variance
	}
	return y
}

// ForwardPooled is the inference forward against a tensor pool; the
// caller owns the returned tensor and should Put it back when done.
func (bn *BatchNorm) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	n, s := bn.dims(x)
	y := p.GetDirty(x.Shape()...)
	bn.inferInto(y.Data(), x.Data(), n, s)
	return y
}

// InferenceAffine returns channel ci's inference transform as the pair
// (scale, shift) with scale = γ/√(var+ε) and shift = β − scale·mean, so
// that the normalized value is float32(scale·x) + shift: a rounded
// multiply, then a rounded add. It is the single definition of that
// arithmetic — inferInto and the fused ConvP kernel (bnn) both apply it
// — which is what keeps a value landing exactly on the zero crossing on
// the same side everywhere.
func (bn *BatchNorm) InferenceAffine(ci int) (scale, shift float32) {
	g := bn.Gamma.Value.Data()[ci]
	inv := float32(1 / math.Sqrt(float64(bn.RunningVar.Data()[ci])+float64(bn.Eps)))
	return g * inv, bn.Beta.Value.Data()[ci] - g*inv*bn.RunningMean.Data()[ci]
}

// inferInto applies the running statistics per channel as
// y = scale·x + shift (see InferenceAffine). The conversion forces the
// product to round before the add on architectures where the compiler
// would otherwise fuse the two.
func (bn *BatchNorm) inferInto(yd, xd []float32, n, s int) {
	c := bn.C
	for ci := 0; ci < c; ci++ {
		scale, shift := bn.InferenceAffine(ci)
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * s
			seg := xd[base : base+s]
			out := yd[base : base+s]
			for i, v := range seg {
				out[i] = float32(scale*v) + shift
			}
		}
	}
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if bn.xhat == nil {
		panic("nn: BatchNorm.Backward called before Forward(train=true)")
	}
	var n, s int
	switch len(bn.shape) {
	case 2:
		n, s = bn.shape[0], 1
	default:
		n, s = bn.shape[0], bn.shape[2]*bn.shape[3]
	}
	c := bn.C
	m := float32(n * s)
	dx := tensor.New(bn.shape...)
	gd, dxd, xh := grad.Data(), dx.Data(), bn.xhat.Data()
	g := bn.Gamma.Value.Data()
	dg, db := bn.Gamma.Grad.Data(), bn.Beta.Grad.Data()
	for ci := 0; ci < c; ci++ {
		var sumDy, sumDyXh float64
		iterChannel(n, c, s, ci, func(off int) {
			sumDy += float64(gd[off])
			sumDyXh += float64(gd[off]) * float64(xh[off])
		})
		dg[ci] += float32(sumDyXh)
		db[ci] += float32(sumDy)
		meanDy := float32(sumDy / float64(m))
		meanDyXh := float32(sumDyXh / float64(m))
		k := g[ci] * bn.invStd[ci]
		iterChannel(n, c, s, ci, func(off int) {
			dxd[off] = k * (gd[off] - meanDy - xh[off]*meanDyXh)
		})
	}
	return dx
}

// iterChannel visits every flat offset belonging to channel ci of an
// [n, c, s] layout.
func iterChannel(n, c, s, ci int, fn func(off int)) {
	for ni := 0; ni < n; ni++ {
		base := (ni*c + ci) * s
		for si := 0; si < s; si++ {
			fn(base + si)
		}
	}
}

// Params returns γ and β.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }
