// Package bnn implements the binary-neural-network substrate the DDNN paper
// runs on its end devices: BinaryConnect-style binarized linear and
// convolutional layers (sign-binarized weights with straight-through latent
// gradients), the sign activation with a hard-tanh straight-through
// estimator, the fused ConvP and FC blocks of Fig. 3, and eBNN-style
// bit-packing used both to deploy weights on memory-limited devices and to
// transmit binarized feature maps to the cloud.
package bnn

import (
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Binarize writes sign(src) into dst: +1 for non-negative values, −1
// otherwise. dst and src must have equal sizes.
func Binarize(dst, src *tensor.Tensor) {
	dd, sd := dst.Data(), src.Data()
	for i, v := range sd {
		if v >= 0 {
			dd[i] = 1
		} else {
			dd[i] = -1
		}
	}
}

// clipLatent is the PostStep hook shared by binarized layers: BinaryConnect
// keeps latent weights in [-1, 1] so they cannot drift without affecting
// their binarization.
func clipLatent(p *nn.Param) { p.Value.Clamp(-1, 1) }

// WeightSyncer is implemented by layers and blocks whose deployed weights
// are derived from latent parameters and must be re-synced after the
// latents change, so that inference forwards stay write-free.
type WeightSyncer interface {
	SyncWeights()
}

// BinaryActivation applies sign(x) with the straight-through estimator on
// the backward pass: gradients flow only where |x| ≤ 1 (hard-tanh window),
// as in Courbariaux et al.
type BinaryActivation struct {
	x *tensor.Tensor
}

var _ nn.Layer = (*BinaryActivation)(nil)

// NewBinaryActivation constructs a sign activation.
func NewBinaryActivation() *BinaryActivation { return &BinaryActivation{} }

// Forward computes sign(x) ∈ {−1, +1}.
func (a *BinaryActivation) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		a.x = x
	}
	y := tensor.New(x.Shape()...)
	Binarize(y, x)
	return y
}

// ForwardPooled is the inference forward against a tensor pool; the
// caller owns the returned tensor and should Put it back when done.
func (a *BinaryActivation) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	y := p.GetDirty(x.Shape()...)
	Binarize(y, x)
	return y
}

// Backward passes the incoming gradient where the pre-activation magnitude
// was at most 1 and zeroes it elsewhere.
func (a *BinaryActivation) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if a.x == nil {
		panic("bnn: BinaryActivation.Backward called before Forward(train=true)")
	}
	dx := grad.Clone()
	xd, dd := a.x.Data(), dx.Data()
	for i, v := range xd {
		if v > 1 || v < -1 {
			dd[i] = 0
		}
	}
	return dx
}

// Params returns nil.
func (a *BinaryActivation) Params() []*nn.Param { return nil }

// BinaryConv2D is a convolution whose effective weights are sign(latent).
// The latent real-valued weights receive the straight-through gradient and
// are clipped to [-1, 1] after each optimizer step.
type BinaryConv2D struct {
	Latent *nn.Param
	inner  *nn.Conv2D
	// xnor holds 3×3 filters bit-packed in window order for the fused
	// ConvP pass's XNOR convolution (xnorconv.go). SyncWeights writes it
	// together with the float weights, so the two never disagree.
	xnor []uint64
}

var _ nn.Layer = (*BinaryConv2D)(nil)

// NewBinaryConv2D constructs a binarized convolution (no bias: the batch
// norm that follows in a ConvP block provides the affine shift).
func NewBinaryConv2D(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int) *BinaryConv2D {
	inner := nn.NewConv2D(rng, name, inC, outC, kernel, stride, pad, false)
	latent := nn.NewParam(name+".latent", outC, inC, kernel, kernel)
	// Start the latent weights from the He initialization of the inner
	// conv, scaled into the clip window.
	latent.Value.CopyFrom(inner.Weight.Value)
	latent.Value.Clamp(-1, 1)
	latent.PostStep = clipLatent
	c := &BinaryConv2D{Latent: latent, inner: inner}
	c.SyncWeights()
	return c
}

// OutSize returns the spatial output size for an input of size in.
func (c *BinaryConv2D) OutSize(in int) int { return c.inner.OutSize(in) }

// OutChannels returns the number of output feature maps.
func (c *BinaryConv2D) OutChannels() int { return c.inner.OutC }

// Forward runs the convolution with binarized weights. Training forwards
// re-binarize the latent weights (which the optimizer moves every step);
// inference forwards use the weights as already synced, so concurrent
// inference never writes to shared model state — see SyncWeights.
func (c *BinaryConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		c.SyncWeights()
	}
	return c.inner.Forward(x, train)
}

// ForwardPooled is the inference forward against a tensor pool; the
// caller owns the returned tensor and should Put it back when done.
func (c *BinaryConv2D) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	return c.inner.ForwardPooled(x, p)
}

// SyncWeights rewrites the effective weights as sign(latent), as floats
// and, for 3×3 kernels, bit-packed. It must be called after the latent
// weights change outside a training forward (state loading, manual
// optimizer steps) and before concurrent inference starts.
func (c *BinaryConv2D) SyncWeights() {
	Binarize(c.inner.Weight.Value, c.Latent.Value)
	if c.inner.Kernel == 3 {
		c.xnor = packXnorFilters(c.xnor, c.inner.Weight.Value.Data(), c.inner.OutC, c.inner.InC)
	}
}

// Backward routes the weight gradient to the latent parameter
// (straight-through) and returns the input gradient.
func (c *BinaryConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.inner.Weight.Grad.Zero()
	dx := c.inner.Backward(grad)
	c.Latent.Grad.Add(c.inner.Weight.Grad)
	return dx
}

// Params returns the latent weights.
func (c *BinaryConv2D) Params() []*nn.Param { return []*nn.Param{c.Latent} }

// WeightBits returns the deployed (binarized) weight footprint in bits.
func (c *BinaryConv2D) WeightBits() int { return c.Latent.Value.Size() }

// PackedWeights returns the binarized weights bit-packed for deployment.
func (c *BinaryConv2D) PackedWeights() []byte {
	c.SyncWeights()
	return PackSigns(c.inner.Weight.Value)
}

// BinaryLinear is a fully connected layer whose effective weights are
// sign(latent), mirroring BinaryConv2D.
type BinaryLinear struct {
	Latent *nn.Param
	inner  *nn.Linear
	// packed is the weights' deployed bit form, written by SyncWeights
	// together with the float weights.
	packed PackedLinear
}

var _ nn.Layer = (*BinaryLinear)(nil)

// NewBinaryLinear constructs a binarized fully connected layer without
// bias.
func NewBinaryLinear(rng *rand.Rand, name string, in, out int) *BinaryLinear {
	inner := nn.NewLinear(rng, name, in, out, false)
	latent := nn.NewParam(name+".latent", in, out)
	latent.Value.CopyFrom(inner.Weight.Value)
	latent.Value.Clamp(-1, 1)
	latent.PostStep = clipLatent
	l := &BinaryLinear{Latent: latent, inner: inner}
	l.SyncWeights()
	return l
}

// In returns the input width.
func (l *BinaryLinear) In() int { return l.inner.In }

// Out returns the output width.
func (l *BinaryLinear) Out() int { return l.inner.Out }

// Forward runs the linear transform with binarized weights. Like
// BinaryConv2D, only training forwards re-binarize; inference reads the
// synced weights so concurrent sessions never race — see SyncWeights.
func (l *BinaryLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.SyncWeights()
	}
	return l.inner.Forward(x, train)
}

// ForwardPooled is the inference forward against a tensor pool; the
// caller owns the returned tensor and should Put it back when done.
func (l *BinaryLinear) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	return l.inner.ForwardPooled(x, p)
}

// SyncWeights rewrites the effective weights as sign(latent), as floats
// and bit-packed (Packed); call it whenever the latent weights change
// outside a training forward.
func (l *BinaryLinear) SyncWeights() {
	Binarize(l.inner.Weight.Value, l.Latent.Value)
	l.packed.pack(l.inner.Weight.Value.Data(), l.inner.In, l.inner.Out)
}

// Packed returns the layer's deployed XNOR-popcount form as of the last
// SyncWeights. Like the float weights, it is read-only to inference.
func (l *BinaryLinear) Packed() *PackedLinear { return &l.packed }

// Backward routes the weight gradient to the latent parameter and returns
// the input gradient.
func (l *BinaryLinear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.inner.Weight.Grad.Zero()
	dx := l.inner.Backward(grad)
	l.Latent.Grad.Add(l.inner.Weight.Grad)
	return dx
}

// Params returns the latent weights.
func (l *BinaryLinear) Params() []*nn.Param { return []*nn.Param{l.Latent} }

// WeightBits returns the deployed (binarized) weight footprint in bits.
func (l *BinaryLinear) WeightBits() int { return l.Latent.Value.Size() }

// PackedWeights returns the binarized weights bit-packed for deployment.
func (l *BinaryLinear) PackedWeights() []byte {
	l.SyncWeights()
	return PackSigns(l.inner.Weight.Value)
}
