package nn

import (
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// ConvPoolBlock is the floating-point counterpart of the paper's fused
// binary ConvP block: a 3×3 convolution (stride 1, padding 1), a 3×3 max
// pool (stride 2, padding 1), batch normalization and a ReLU activation.
// The paper's §VI proposes mixed-precision DDNNs where end devices keep
// binary layers but the cloud uses floating-point ones; this block is that
// cloud-side building unit.
type ConvPoolBlock struct {
	Conv *Conv2D
	Pool *MaxPool2D
	BN   *BatchNorm
	Act  *ReLU
}

var _ Layer = (*ConvPoolBlock)(nil)

// NewConvPoolBlock constructs a float conv-pool block with f filters.
func NewConvPoolBlock(rng *rand.Rand, name string, inC, f int) *ConvPoolBlock {
	return &ConvPoolBlock{
		Conv: NewConv2D(rng, name+".conv", inC, f, 3, 1, 1, false),
		Pool: NewMaxPool2D(3, 2, 1),
		BN:   NewBatchNorm(name+".bn", f),
		Act:  NewReLU(),
	}
}

// Forward applies conv → pool → batch norm → ReLU.
func (b *ConvPoolBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.Conv.Forward(x, train)
	y = b.Pool.Forward(y, train)
	y = b.BN.Forward(y, train)
	return b.Act.Forward(y, train)
}

// ForwardPooled is the inference forward against a tensor pool:
// intermediates are returned to the pool as soon as the next stage has
// consumed them, and the caller owns the returned tensor.
func (b *ConvPoolBlock) ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	y1 := b.Conv.ForwardPooled(x, p)
	y2 := b.Pool.ForwardPooled(y1, p)
	p.Put(y1)
	y3 := b.BN.ForwardPooled(y2, p)
	p.Put(y2)
	y4 := b.Act.ForwardPooled(y3, p)
	p.Put(y3)
	return y4
}

// Backward propagates through the block in reverse.
func (b *ConvPoolBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = b.Act.Backward(grad)
	grad = b.BN.Backward(grad)
	grad = b.Pool.Backward(grad)
	return b.Conv.Backward(grad)
}

// ReleaseTraining releases every stage's training caches.
func (b *ConvPoolBlock) ReleaseTraining() {
	b.Conv.ReleaseTraining()
	b.Pool.ReleaseTraining()
	b.BN.ReleaseTraining()
	b.Act.ReleaseTraining()
}

// Params returns the block's learnable parameters.
func (b *ConvPoolBlock) Params() []*Param {
	return append(b.Conv.Params(), b.BN.Params()...)
}

// MemoryBits returns the deployed footprint: 32 bits per weight plus the
// fused batch-norm scale/shift pairs.
func (b *ConvPoolBlock) MemoryBits() int {
	return 32*b.Conv.Weight.Value.Size() + 2*32*b.BN.C
}
