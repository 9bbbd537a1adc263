package agg

import (
	"fmt"
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// ConcatVec implements CC for exit vectors (§III-B): the per-device
// [N, C] vectors are concatenated to [N, n·C] and an additional linear
// layer maps the result back to C dimensions, exactly as the paper
// specifies ("we add an additional linear layer").
type ConcatVec struct {
	n, c   int
	linear *nn.Linear
	mask   []bool
}

var _ Aggregator = (*ConcatVec)(nil)

// NewConcatVec constructs a CC aggregator for n devices emitting C-wide
// vectors.
func NewConcatVec(rng *rand.Rand, name string, n, c int) *ConcatVec {
	return &ConcatVec{
		n:      n,
		c:      c,
		linear: nn.NewLinear(rng, name+".proj", n*c, c, true),
	}
}

// Forward concatenates present inputs (absent devices contribute zeros) and
// applies the projection.
func (a *ConcatVec) Forward(inputs []*tensor.Tensor, mask []bool, train bool) *tensor.Tensor {
	checkInputs(inputs, mask)
	if len(inputs) != a.n {
		panic(fmt.Sprintf("agg: ConcatVec built for %d devices, got %d", a.n, len(inputs)))
	}
	batch := inputs[0].Dim(0)
	cat := tensor.New(batch, a.n*a.c)
	for d, in := range inputs {
		if !present(mask, d) {
			continue
		}
		for b := 0; b < batch; b++ {
			copy(cat.Row(b)[d*a.c:(d+1)*a.c], in.Row(b))
		}
	}
	if train {
		a.mask = mask
	}
	return a.linear.Forward(cat, train)
}

// ForwardPooled is the inference forward under per-sample masks: the
// concatenation buffer is borrowed and returned, and the projection
// output comes from the pool.
func (a *ConcatVec) ForwardPooled(inputs []*tensor.Tensor, masks []uint16, p *tensor.Pool) *tensor.Tensor {
	checkMasks(inputs, masks)
	if len(inputs) != a.n {
		panic(fmt.Sprintf("agg: ConcatVec built for %d devices, got %d", a.n, len(inputs)))
	}
	batch := inputs[0].Dim(0)
	cat := p.Get(batch, a.n*a.c)
	for d, in := range inputs {
		for b := 0; b < batch; b++ {
			if covers(masks, b, d) {
				copy(cat.Row(b)[d*a.c:(d+1)*a.c], in.Row(b))
			}
		}
	}
	out := a.linear.ForwardPooled(cat, p)
	p.Put(cat)
	return out
}

// Backward propagates through the projection and splits the gradient back
// into per-device slices.
func (a *ConcatVec) Backward(grad *tensor.Tensor) []*tensor.Tensor {
	dcat := a.linear.Backward(grad)
	batch := dcat.Dim(0)
	grads := make([]*tensor.Tensor, a.n)
	for d := range grads {
		grads[d] = tensor.New(batch, a.c)
		if !present(a.mask, d) {
			continue
		}
		for b := 0; b < batch; b++ {
			copy(grads[d].Row(b), dcat.Row(b)[d*a.c:(d+1)*a.c])
		}
	}
	return grads
}

// Params returns the projection parameters.
func (a *ConcatVec) Params() []*nn.Param { return a.linear.Params() }

// ConcatFeat implements CC for feature maps: per-device [N, F, H, W] maps
// are concatenated along the channel axis to [N, n·F, H, W]. The NN layers
// above the aggregator (the cloud convolutions) consume the widened tensor,
// so no projection is needed here.
type ConcatFeat struct {
	n     int
	shape []int // per-device shape
	mask  []bool
}

var (
	_ Aggregator    = (*ConcatFeat)(nil)
	_ BitAggregator = (*ConcatFeat)(nil)
)

// NewConcatFeat constructs a channel-concatenating CC aggregator for n
// devices.
func NewConcatFeat(n int) *ConcatFeat { return &ConcatFeat{n: n} }

// OutChannels returns the channel count of the aggregated tensor for
// per-device channel count f.
func (a *ConcatFeat) OutChannels(f int) int { return a.n * f }

// Forward concatenates along the channel axis; absent devices contribute
// zero channels.
func (a *ConcatFeat) Forward(inputs []*tensor.Tensor, mask []bool, train bool) *tensor.Tensor {
	checkInputs(inputs, mask)
	if len(inputs) != a.n {
		panic(fmt.Sprintf("agg: ConcatFeat built for %d devices, got %d", a.n, len(inputs)))
	}
	in0 := inputs[0]
	if in0.Dims() != 4 {
		panic(fmt.Sprintf("agg: ConcatFeat input shape %v, want 4-D", in0.Shape()))
	}
	batch, f, h, w := in0.Dim(0), in0.Dim(1), in0.Dim(2), in0.Dim(3)
	out := tensor.New(batch, a.n*f, h, w)
	plane := f * h * w
	od := out.Data()
	for d, in := range inputs {
		if !present(mask, d) {
			continue
		}
		id := in.Data()
		for b := 0; b < batch; b++ {
			dst := od[(b*a.n+d)*plane : (b*a.n+d+1)*plane]
			copy(dst, id[b*plane:(b+1)*plane])
		}
	}
	if train {
		a.shape = in0.Shape()
		a.mask = mask
	}
	return out
}

// ForwardPooled is the inference forward under per-sample masks.
func (a *ConcatFeat) ForwardPooled(inputs []*tensor.Tensor, masks []uint16, p *tensor.Pool) *tensor.Tensor {
	checkMasks(inputs, masks)
	if len(inputs) != a.n {
		panic(fmt.Sprintf("agg: ConcatFeat built for %d devices, got %d", a.n, len(inputs)))
	}
	in0 := inputs[0]
	if in0.Dims() != 4 {
		panic(fmt.Sprintf("agg: ConcatFeat input shape %v, want 4-D", in0.Shape()))
	}
	batch, f, h, w := in0.Dim(0), in0.Dim(1), in0.Dim(2), in0.Dim(3)
	// Zero-filled Get: absent devices must contribute zero channels.
	out := p.Get(batch, a.n*f, h, w)
	plane := f * h * w
	od := out.Data()
	for d, in := range inputs {
		id := in.Data()
		for b := 0; b < batch; b++ {
			if covers(masks, b, d) {
				copy(od[(b*a.n+d)*plane:(b*a.n+d+1)*plane], id[b*plane:(b+1)*plane])
			}
		}
	}
	return out
}

// AggregateBits writes each present device's map into its own channel
// group; an absent device's group keeps its nonzero bits clear,
// Forward's zero channels.
func (a *ConcatFeat) AggregateBits(dst bnn.Planes, feats [][]byte, masks []uint16) {
	f := dst.C / a.n
	s := newSessionMaps(feats, f, dst)
	for i, mask := range masks {
		dst.Place(i, 0, s.next(mask), f)
	}
}

// Backward splits the channel-concatenated gradient back per device.
func (a *ConcatFeat) Backward(grad *tensor.Tensor) []*tensor.Tensor {
	if a.shape == nil {
		panic("agg: ConcatFeat.Backward called before Forward(train=true)")
	}
	batch, f, h, w := a.shape[0], a.shape[1], a.shape[2], a.shape[3]
	plane := f * h * w
	gd := grad.Data()
	grads := make([]*tensor.Tensor, a.n)
	for d := range grads {
		grads[d] = tensor.New(a.shape...)
		if !present(a.mask, d) {
			continue
		}
		dd := grads[d].Data()
		for b := 0; b < batch; b++ {
			copy(dd[b*plane:(b+1)*plane], gd[(b*a.n+d)*plane:(b*a.n+d+1)*plane])
		}
	}
	return grads
}

// Params returns nil: feature concatenation has no learnable parameters.
func (a *ConcatFeat) Params() []*nn.Param { return nil }

// NewVector returns the vector aggregator for a scheme, used at the local
// (and edge) exit points where devices emit |C|-wide probability summaries.
func NewVector(rng *rand.Rand, name string, s Scheme, n, c int) Aggregator {
	switch s {
	case MP:
		return NewMax()
	case AP:
		return NewAvg()
	case CC:
		return NewConcatVec(rng, name, n, c)
	default:
		panic(fmt.Sprintf("agg: unknown scheme %v", s))
	}
}

// NewFeature returns the feature-map aggregator for a scheme, used at the
// cloud where devices upload binarized activation maps.
func NewFeature(s Scheme, n int) Aggregator {
	switch s {
	case MP:
		return NewMax()
	case AP:
		return NewAvg()
	case CC:
		return NewConcatFeat(n)
	default:
		panic(fmt.Sprintf("agg: unknown scheme %v", s))
	}
}

// FeatureOutChannels returns the channel count the cloud sees for a scheme
// given n devices with f channels each.
func FeatureOutChannels(s Scheme, n, f int) int {
	if s == CC {
		return n * f
	}
	return f
}
