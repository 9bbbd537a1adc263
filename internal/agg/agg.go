// Package agg implements the DDNN aggregation schemes of §III-B: max
// pooling (MP), average pooling (AP) and concatenation (CC) over the
// outputs of multiple end devices, with full gradient routing so the
// aggregators can participate in joint training, and presence masks so the
// system keeps working when devices fail (§IV-G).
package agg

import (
	"fmt"
	"math"

	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Scheme identifies an aggregation method.
type Scheme int

// Aggregation schemes from §III-B of the paper.
const (
	MP Scheme = iota + 1 // max pooling
	AP                   // average pooling
	CC                   // concatenation
)

// String returns the paper's two-letter code for the scheme.
func (s Scheme) String() string {
	switch s {
	case MP:
		return "MP"
	case AP:
		return "AP"
	case CC:
		return "CC"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a two-letter code to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "MP", "mp":
		return MP, nil
	case "AP", "ap":
		return AP, nil
	case "CC", "cc":
		return CC, nil
	default:
		return 0, fmt.Errorf("agg: unknown aggregation scheme %q", s)
	}
}

// Schemes lists all aggregation schemes.
func Schemes() []Scheme { return []Scheme{MP, AP, CC} }

// Aggregator combines per-device tensors of identical shape into a single
// tensor for the next stage of a DDNN. mask[i] reports whether device i is
// present; a nil mask means all devices are present. Backward returns one
// gradient per device (zero tensors for absent devices).
type Aggregator interface {
	Forward(inputs []*tensor.Tensor, mask []bool, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) []*tensor.Tensor
	Params() []*nn.Param
}

// PooledAggregator is implemented by aggregators whose inference forward
// can draw the output from a tensor.Pool; the caller owns the returned
// tensor and should Put it back once consumed.
type PooledAggregator interface {
	ForwardPooled(inputs []*tensor.Tensor, mask []bool, p *tensor.Pool) *tensor.Tensor
}

// ForwardPooled runs a's pooled inference forward when it has one,
// falling back to a plain inference Forward otherwise.
func ForwardPooled(a Aggregator, inputs []*tensor.Tensor, mask []bool, p *tensor.Pool) *tensor.Tensor {
	if pa, ok := a.(PooledAggregator); ok {
		return pa.ForwardPooled(inputs, mask, p)
	}
	return a.Forward(inputs, mask, false)
}

// BitAggregator is implemented by the feature aggregators whose output
// on ±1 device maps is itself ternary, MP and CC, so a bit-domain ConvP
// block (bnn.Planes) can read it with no float round trip. Avg is not
// one: a mean of ±1 values is not ternary, so AP keeps the float path.
type BitAggregator interface {
	// AggregateBits aggregates one session's device features into dst,
	// whose C is FeatureOutChannels, each sample under its own presence
	// mask: masks[i] has bit d set when device d covers sample i, and
	// feats[d] holds device d's packed maps (bnn.PackSigns bytes) of the
	// samples it covers, in sample order. dst must be zeroed.
	AggregateBits(dst bnn.Planes, feats [][]byte, masks []uint16)
}

// maxBitDevices bounds the devices a bit aggregation takes: a presence
// mask is 16 bits.
const maxBitDevices = 16

// sessionMaps walks a session's device features sample by sample (see
// BitAggregator.AggregateBits), each device's maps f·H·W bits long.
type sessionMaps struct {
	feats  [][]byte
	stride int
	buf    [maxBitDevices][]byte
	at     [maxBitDevices]int // each device's next byte
}

func newSessionMaps(feats [][]byte, f int, dst bnn.Planes) sessionMaps {
	if len(feats) > maxBitDevices {
		panic(fmt.Sprintf("agg: %d devices in a bit aggregation, at most %d", len(feats), maxBitDevices))
	}
	return sessionMaps{feats: feats, stride: bnn.PackedSize(f * dst.H * dst.W)}
}

// next returns the next sample's device maps under its presence mask,
// nil for an absent device.
func (s *sessionMaps) next(mask uint16) [][]byte {
	maps := s.buf[:len(s.feats)]
	for d := range maps {
		maps[d] = nil
		if mask&(1<<uint(d)) != 0 {
			maps[d] = s.feats[d][s.at[d] : s.at[d]+s.stride]
			s.at[d] += s.stride
		}
	}
	return maps
}

func checkInputs(inputs []*tensor.Tensor, mask []bool) {
	if len(inputs) == 0 {
		panic("agg: no inputs")
	}
	if mask != nil && len(mask) != len(inputs) {
		panic(fmt.Sprintf("agg: mask length %d for %d inputs", len(mask), len(inputs)))
	}
	for i := 1; i < len(inputs); i++ {
		if !inputs[i].SameShape(inputs[0]) {
			panic(fmt.Sprintf("agg: input %d shape %v differs from %v", i, inputs[i].Shape(), inputs[0].Shape()))
		}
	}
}

func present(mask []bool, i int) bool { return mask == nil || mask[i] }

func presentCount(mask []bool, n int) int {
	if mask == nil {
		return n
	}
	c := 0
	for _, m := range mask {
		if m {
			c++
		}
	}
	return c
}

// Max implements MP: the elementwise maximum over present devices. The
// backward pass routes each gradient element to the single device that won
// the max, which is why (per §IV-C) MP-MP trains fewer devices per step
// than MP-CC.
type Max struct {
	n      int
	shape  []int
	winner []int32 // device index per element, -1 when no device present
}

var (
	_ Aggregator    = (*Max)(nil)
	_ BitAggregator = (*Max)(nil)
)

// NewMax constructs an MP aggregator.
func NewMax() *Max { return &Max{} }

// Forward computes the elementwise max over present inputs.
func (a *Max) Forward(inputs []*tensor.Tensor, mask []bool, train bool) *tensor.Tensor {
	checkInputs(inputs, mask)
	out := tensor.New(inputs[0].Shape()...)
	size := out.Size()
	winner := make([]int32, size)
	for i := range winner {
		winner[i] = -1
	}
	od := out.Data()
	for i := range od {
		od[i] = float32(math.Inf(-1))
	}
	for d, in := range inputs {
		if !present(mask, d) {
			continue
		}
		id := in.Data()
		for i, v := range id {
			if v > od[i] {
				od[i] = v
				winner[i] = int32(d)
			}
		}
	}
	// With every device absent, fall back to zeros rather than -inf.
	for i := range od {
		if winner[i] < 0 {
			od[i] = 0
		}
	}
	if train {
		a.n = len(inputs)
		a.shape = inputs[0].Shape()
		a.winner = winner
	}
	return out
}

// ForwardPooled is the inference forward against a tensor pool. It skips
// the winner bookkeeping (only backward needs it) but reproduces
// Forward's values exactly: elements no present device raised above -inf
// fall back to zero.
func (a *Max) ForwardPooled(inputs []*tensor.Tensor, mask []bool, p *tensor.Pool) *tensor.Tensor {
	checkInputs(inputs, mask)
	out := p.GetDirty(inputs[0].Shape()...)
	od := out.Data()
	negInf := float32(math.Inf(-1))
	for i := range od {
		od[i] = negInf
	}
	for d, in := range inputs {
		if !present(mask, d) {
			continue
		}
		id := in.Data()
		for i, v := range id {
			if v > od[i] {
				od[i] = v
			}
		}
	}
	for i := range od {
		if od[i] == negInf {
			od[i] = 0
		}
	}
	return out
}

// AggregateBits ORs each sample's present devices' sign bits into its
// channels: the max of ±1 values is +1 exactly when one of them is. With
// no device present the nonzero bits stay clear, which is Forward's
// fallback to zero.
func (a *Max) AggregateBits(dst bnn.Planes, feats [][]byte, masks []uint16) {
	s := newSessionMaps(feats, dst.C, dst)
	for i, mask := range masks {
		maps := s.next(mask)
		for d := range maps {
			if maps[d] != nil {
				dst.Place(i, 0, maps[d:d+1], dst.C)
			}
		}
	}
}

// Backward routes each gradient element to the winning device.
func (a *Max) Backward(grad *tensor.Tensor) []*tensor.Tensor {
	if a.winner == nil {
		panic("agg: Max.Backward called before Forward(train=true)")
	}
	grads := make([]*tensor.Tensor, a.n)
	for d := range grads {
		grads[d] = tensor.New(a.shape...)
	}
	gd := grad.Data()
	for i, w := range a.winner {
		if w >= 0 {
			grads[w].Data()[i] += gd[i]
		}
	}
	return grads
}

// Params returns nil: MP has no learnable parameters.
func (a *Max) Params() []*nn.Param { return nil }

// Avg implements AP: the elementwise mean over present devices. Averaging
// can damp noise but, as §IV-C observes, it also dilutes strong responses
// when the object is absent from some views. Its output is not ternary,
// so it has no bit form (see BitAggregator).
type Avg struct {
	n     int
	shape []int
	mask  []bool
	count int
}

var _ Aggregator = (*Avg)(nil)

// NewAvg constructs an AP aggregator.
func NewAvg() *Avg { return &Avg{} }

// Forward computes the elementwise mean over present inputs.
func (a *Avg) Forward(inputs []*tensor.Tensor, mask []bool, train bool) *tensor.Tensor {
	checkInputs(inputs, mask)
	out := tensor.New(inputs[0].Shape()...)
	k := presentCount(mask, len(inputs))
	if k == 0 {
		return out
	}
	od := out.Data()
	for d, in := range inputs {
		if !present(mask, d) {
			continue
		}
		id := in.Data()
		for i, v := range id {
			od[i] += v
		}
	}
	out.Scale(1 / float32(k))
	if train {
		a.n = len(inputs)
		a.shape = inputs[0].Shape()
		a.mask = mask
		a.count = k
	}
	return out
}

// ForwardPooled is the inference forward against a tensor pool.
func (a *Avg) ForwardPooled(inputs []*tensor.Tensor, mask []bool, p *tensor.Pool) *tensor.Tensor {
	checkInputs(inputs, mask)
	out := p.Get(inputs[0].Shape()...)
	k := presentCount(mask, len(inputs))
	if k == 0 {
		return out
	}
	od := out.Data()
	for d, in := range inputs {
		if !present(mask, d) {
			continue
		}
		id := in.Data()
		for i, v := range id {
			od[i] += v
		}
	}
	out.Scale(1 / float32(k))
	return out
}

// Backward distributes grad/k to every present device.
func (a *Avg) Backward(grad *tensor.Tensor) []*tensor.Tensor {
	if a.shape == nil {
		panic("agg: Avg.Backward called before Forward(train=true)")
	}
	grads := make([]*tensor.Tensor, a.n)
	for d := range grads {
		grads[d] = tensor.New(a.shape...)
		if present(a.mask, d) && a.count > 0 {
			grads[d].CopyFrom(grad)
			grads[d].Scale(1 / float32(a.count))
		}
	}
	return grads
}

// Params returns nil: AP has no learnable parameters.
func (a *Avg) Params() []*nn.Param { return nil }
