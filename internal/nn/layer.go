// Package nn implements the neural-network substrate used by the DDNN
// reproduction: a layer-wise framework with explicit forward and backward
// passes, standard layers (linear, convolution, pooling, batch
// normalization), the softmax cross-entropy loss, and the Adam optimizer.
// All math is float32 and single-threaded deterministic given a fixed seed.
package nn

import (
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Param is a single learnable parameter with its accumulated gradient.
type Param struct {
	// Name identifies the parameter for serialization and debugging, e.g.
	// "conv1.weight".
	Name string
	// Value holds the parameter data. For binarized layers this is the
	// real-valued latent weight; the binarized view is derived at forward
	// time.
	Value *tensor.Tensor
	// Grad accumulates the gradient of the loss with respect to Value. It
	// always has the same shape as Value.
	Grad *tensor.Tensor
	// PostStep, if non-nil, runs after every optimizer step. Binary layers
	// use it to clip latent weights to [-1, 1] as in BinaryConnect.
	PostStep func(p *Param)
}

// NewParam allocates a parameter and its gradient with the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward computes the output for an
// input batch; Backward consumes the gradient of the loss with respect to
// the layer output and returns the gradient with respect to the layer
// input, accumulating parameter gradients as a side effect.
//
// Backward must be called after Forward with train=true; layers may cache
// activations between the two calls. ReleaseTraining drops those caches
// (and any training scratch) once training is done; Backward then panics
// until the next training Forward, as on a fresh layer, and inference is
// unaffected. Layers are not safe for concurrent use, except for
// ForwardPooled: the inference forward drawing its output (and internal
// scratch) from a tensor.Pool instead of the heap. The caller owns the
// returned tensor and should Put it back once consumed. ForwardPooled
// never caches activations and, like inference Forward, never writes to
// layer state, so concurrent sessions may share a layer.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	ForwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	ReleaseTraining()
}

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// CountParams returns the total number of scalar parameters in ps.
func CountParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Size()
	}
	return n
}
