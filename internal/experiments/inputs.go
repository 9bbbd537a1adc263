package experiments

import (
	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// ForwardInputs is a set of distinct inputs for the section-forward
// benchmarks to rotate over. Timing one constant input lets the branch
// predictor memorise every data-dependent compare of that input (the
// pooled rows of BENCH_pr4–pr10 did, and read 20–50 % optimistic for
// it); a serving node never sees the same frame twice.
type ForwardInputs struct {
	// Views[s] is a [batch, C, H, W] batch of device 0's dataset frames.
	Views []*tensor.Tensor
	// Feats[s][d] is device d's [batch, F, H/2, W/2] feature map for the
	// same samples, as the cloud or edge section receives it.
	Feats [][]*tensor.Tensor
	// Concat[s] is Feats[s] concatenated along the channel axis (CC
	// aggregation): the input of the first block above the devices.
	Concat []*tensor.Tensor
}

// NewForwardInputs renders sets+batch−1 synthetic MVMC samples and cuts
// them into sets sliding windows of batch consecutive samples, running
// every device section of m once to produce the feature maps.
func NewForwardInputs(m *core.Model, sets, batch int) (*ForwardInputs, error) {
	dc := dataset.DefaultConfig()
	dc.Train, dc.Test = 1, sets+batch-1
	_, test, err := dataset.Generate(dc)
	if err != nil {
		return nil, err
	}
	all := make([]int, test.Len())
	for i := range all {
		all[i] = i
	}
	window := func(t *tensor.Tensor, s int) *tensor.Tensor {
		shape := append([]int{batch}, t.Shape()[1:]...)
		return tensor.FromSlice(t.Data()[s*t.SampleSize():(s+batch)*t.SampleSize()], shape...)
	}
	views := test.DeviceBatch(0, all)
	feats := make([]*tensor.Tensor, m.Cfg.Devices)
	for d := range feats {
		feats[d], _ = m.DeviceForward(d, test.DeviceBatch(d, all))
	}
	concat := agg.NewConcatFeat(len(feats)).Forward(feats, nil, false)
	in := &ForwardInputs{}
	for s := 0; s < sets; s++ {
		in.Views = append(in.Views, window(views, s))
		set := make([]*tensor.Tensor, len(feats))
		for d, f := range feats {
			set[d] = window(f, s)
		}
		in.Feats = append(in.Feats, set)
		in.Concat = append(in.Concat, window(concat, s))
	}
	return in, nil
}
