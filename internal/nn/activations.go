package nn

import (
	"slices"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// ReLU is the rectified-linear activation. It is used by the optional
// floating-point cloud variants (§VI future work); the binary blocks use
// bnn.BinaryActivation instead.
type ReLU struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x.Clone()
	yd := y.Data()
	if train {
		// Every entry of the mask is written, so the last step's is reused.
		r.mask = slices.Grow(r.mask[:0], len(yd))[:len(yd)]
	}
	for i, v := range yd {
		if train {
			r.mask[i] = v > 0
		}
		if v <= 0 {
			yd[i] = 0
		}
	}
	return y
}

// ForwardPooled is the inference forward against a tensor pool; the
// caller owns the returned tensor and should Put it back when done.
func (r *ReLU) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	y := p.GetDirty(x.Shape()...)
	yd, xd := y.Data(), x.Data()
	for i, v := range xd {
		if v <= 0 {
			v = 0
		}
		yd[i] = v
	}
	return y
}

// Backward passes gradient only where the input was positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward called before Forward(train=true)")
	}
	dx := grad.Clone()
	dxd := dx.Data()
	for i := range dxd {
		if !r.mask[i] {
			dxd[i] = 0
		}
	}
	return dx
}

// ReleaseTraining drops the last training forward's mask.
func (r *ReLU) ReleaseTraining() { r.mask = nil }

// Params returns nil.
func (r *ReLU) Params() []*Param { return nil }
