package bnn

import (
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// ConvP is the fused binary convolution-pool block of Fig. 3: a 3×3
// binarized convolution (stride 1, padding 1, f filters), a 3×3 max pool
// (stride 2, padding 1), batch normalization and a binary activation. On a
// 2^k input it halves each spatial dimension and emits values in {−1, +1}.
type ConvP struct {
	Conv *BinaryConv2D
	Pool *nn.MaxPool2D
	BN   *nn.BatchNorm
	Act  *BinaryActivation
	// Frames marks a device block, whose input is byte frames
	// (ForwardFrames): SyncWeights then also derives the integer frame
	// epilogue, frames.
	Frames bool
	// thresh is the bit-domain forwards' per-filter epilogue, derived
	// from BN by SyncWeights (fused.go).
	thresh []threshold
	// frames is the byte-frame forward's weights and epilogue, derived
	// by SyncWeights when Frames is set (frames.go).
	frames frameEpilogue
}

var _ nn.Layer = (*ConvP)(nil)

// NewConvP constructs a ConvP block with f output filters.
func NewConvP(rng *rand.Rand, name string, inC, f int) *ConvP {
	b := &ConvP{
		Conv: NewBinaryConv2D(rng, name+".conv", inC, f, 3, 1, 1),
		Pool: nn.NewMaxPool2D(3, 2, 1),
		BN:   nn.NewBatchNorm(name+".bn", f),
		Act:  NewBinaryActivation(),
	}
	b.thresh = deriveThresholds(nil, b.BN, 9*inC, 1)
	return b
}

// Forward applies conv → pool → batch norm → binary activation.
func (b *ConvP) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.Conv.Forward(x, train)
	y = b.Pool.Forward(y, train)
	y = b.BN.Forward(y, train)
	return b.Act.Forward(y, train)
}

// ForwardLayered is the pooled inference forward as four separate layer
// sweeps, each intermediate returned to the pool as soon as the next
// stage has consumed it: the baseline the kernels benchmark times the
// fused pass (ForwardPooled, fused.go) against.
func (b *ConvP) ForwardLayered(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	y1 := b.Conv.ForwardPooled(x, p)
	y2 := b.Pool.ForwardPooled(y1, p)
	p.Put(y1)
	y3 := b.BN.ForwardPooled(y2, p)
	p.Put(y2)
	y4 := b.Act.ForwardPooled(y3, p)
	p.Put(y3)
	return y4
}

// ForwardPlanes is the bit-domain inference forward for a block that
// feeds another one: the input is a ternary map already in bit planes
// (an MP or CC aggregation of ±1 device features, or the previous
// block's output), and each sample's output signs are placed into the
// returned planes, the next block's input (from p; Put them back once
// consumed), as the aggregation places a device's map. The outputs are
// the signs ForwardPooled computes on the same map as floats (fused.go),
// under the thresholds of the last SyncWeights.
func (b *ConvP) ForwardPlanes(in Planes, p *tensor.Pool) Planes {
	signs := b.ForwardPacked(in, p)
	defer p.PutBytes(signs)
	return PlacePacked(p, signs, in.N, b.Filters(), (in.H-1)/2+1, (in.W-1)/2+1)
}

// ForwardPacked is ForwardPlanes for the last block of a section: the
// sign bits go into PackSigns bytes, one PackedSize(F·H'·W') run per
// sample back to back — the exit head's input and the wire's feature
// payload. The buffer comes from p (PutBytes it back once consumed).
func (b *ConvP) ForwardPacked(in Planes, p *tensor.Pool) []byte {
	stride := PackedSize(b.Filters() * ((in.H-1)/2 + 1) * ((in.W-1)/2 + 1))
	out := p.GetBytes(in.N * stride)
	clear(out)
	b.forwardBits(in, out, stride, p)
	return out
}

// Backward propagates through the block in reverse.
func (b *ConvP) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = b.Act.Backward(grad)
	grad = b.BN.Backward(grad)
	grad = b.Pool.Backward(grad)
	return b.Conv.Backward(grad)
}

// Params returns the block's learnable parameters.
func (b *ConvP) Params() []*nn.Param {
	ps := b.Conv.Params()
	ps = append(ps, b.BN.Params()...)
	return ps
}

// Filters returns the number of output filters f.
func (b *ConvP) Filters() int { return b.Conv.OutChannels() }

// SyncWeights re-derives the block's binarized weights from the latent
// parameters, and the bit-domain thresholds (and for a Frames block the
// byte-frame epilogue) from the batch norm, making subsequent inference
// forwards read-only.
func (b *ConvP) SyncWeights() {
	b.Conv.SyncWeights()
	b.thresh = deriveThresholds(b.thresh, b.BN, 9*b.Conv.inner.InC, 1)
	if b.Frames {
		b.frames.sync(b)
	}
}

// MemoryBits returns the eBNN deployment footprint: 1 bit per binarized
// weight plus 32 bits per batch-norm scale/shift pair (γ, β fused with the
// running statistics into a single multiply-add per channel at inference).
func (b *ConvP) MemoryBits() int {
	return b.Conv.WeightBits() + 2*32*b.BN.C
}

// FC is the fused binary fully connected block of Fig. 3: a binarized
// linear layer with n nodes, batch normalization and a binary activation.
type FC struct {
	Linear *BinaryLinear
	BN     *nn.BatchNorm
	Act    *BinaryActivation
}

var _ nn.Layer = (*FC)(nil)

// NewFC constructs an FC block mapping in features to n nodes.
func NewFC(rng *rand.Rand, name string, in, n int) *FC {
	return &FC{
		Linear: NewBinaryLinear(rng, name+".fc", in, n),
		BN:     nn.NewBatchNorm(name+".bn", n),
		Act:    NewBinaryActivation(),
	}
}

// Forward applies linear → batch norm → binary activation.
func (b *FC) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.Linear.Forward(x, train)
	y = b.BN.Forward(y, train)
	return b.Act.Forward(y, train)
}

// ForwardPooled is the inference forward against a tensor pool:
// intermediates are returned to the pool as soon as the next stage has
// consumed them, and the caller owns the returned tensor.
func (b *FC) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	y1 := b.Linear.ForwardPooled(x, p)
	y2 := b.BN.ForwardPooled(y1, p)
	p.Put(y1)
	y3 := b.Act.ForwardPooled(y2, p)
	p.Put(y2)
	return y3
}

// Backward propagates through the block in reverse.
func (b *FC) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = b.Act.Backward(grad)
	grad = b.BN.Backward(grad)
	return b.Linear.Backward(grad)
}

// Params returns the block's learnable parameters.
func (b *FC) Params() []*nn.Param {
	ps := b.Linear.Params()
	ps = append(ps, b.BN.Params()...)
	return ps
}

// MemoryBits returns the eBNN deployment footprint of the block.
func (b *FC) MemoryBits() int {
	return b.Linear.WeightBits() + 2*32*b.BN.C
}

// SyncWeights re-derives the block's binarized weights from the latent
// parameters, making subsequent inference forwards read-only.
func (b *FC) SyncWeights() { b.Linear.SyncWeights() }

// MemoryMeasurer is implemented by blocks and layers that can report their
// deployed memory footprint.
type MemoryMeasurer interface {
	MemoryBits() int
}

// TotalMemoryBytes sums the deployment footprint of a device section,
// rounding up to whole bytes. The paper reports that every end-device
// configuration evaluated fits in under 2 KB (§IV-F).
func TotalMemoryBytes(blocks ...MemoryMeasurer) int {
	bits := 0
	for _, b := range blocks {
		bits += b.MemoryBits()
	}
	return (bits + 7) / 8
}
