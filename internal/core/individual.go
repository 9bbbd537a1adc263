package core

import (
	"fmt"
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// IndividualModel is the per-device baseline of §III-F: a single device's
// NN (a ConvP block followed by an FC exit head) trained separately from
// any DDNN. Its accuracy is the "Individual" curve of Fig. 8.
type IndividualModel struct {
	Device  int
	Classes int
	convp   *bnn.ConvP
	exit    *exitHead
	params  []*nn.Param
	fh, fw  int
}

// NewIndividualModel builds the standalone model for one device using the
// same section architecture as the DDNN device sections.
func NewIndividualModel(cfg Config, device int) (*IndividualModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if device < 0 || device >= cfg.Devices {
		return nil, fmt.Errorf("core: device %d out of range [0,%d)", device, cfg.Devices)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(device)*7919))
	name := fmt.Sprintf("ind%d", device)
	im := &IndividualModel{
		Device:  device,
		Classes: cfg.Classes,
		convp:   bnn.NewConvP(rng, name+".convp", cfg.InputC, cfg.DeviceFilters),
		exit:    newExitHead(rng, name, cfg.DeviceFilters*cfg.FeatureSize(), cfg.Classes),
		fh:      cfg.FeatureH(),
		fw:      cfg.FeatureW(),
	}
	im.params = append(im.params, im.convp.Params()...)
	im.params = append(im.params, im.exit.params()...)
	im.Freeze()
	return im, nil
}

// Params returns the learnable parameters.
func (im *IndividualModel) Params() []*nn.Param { return im.params }

// Forward computes class logits for a batch of this device's views.
func (im *IndividualModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	feat := im.convp.Forward(x, train)
	n := feat.Dim(0)
	return im.exit.forward(feat.Reshape(n, feat.Size()/n), train)
}

// Train fits the individual model on the samples in which the object
// appears in this device's frame ("Objects that are not present in a frame
// are not used during training", §IV-B).
func (im *IndividualModel) Train(ds *dataset.Dataset, cfg TrainConfig) (float64, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return 0, fmt.Errorf("core: invalid train config %+v", cfg)
	}
	present := ds.PresentIndices(im.Device)
	if len(present) < cfg.BatchSize {
		return 0, fmt.Errorf("core: device %d has only %d present samples", im.Device, len(present))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start+1 < len(present); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(present) {
				end = len(present)
			}
			if end-start < 2 {
				continue
			}
			batch := present[start:end]
			x := ds.DeviceBatch(im.Device, batch)
			labels := ds.Labels(batch)
			logits := im.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, labels, 1)
			nn.ZeroGrads(im.params)
			im.exitBackward(grad)
			opt.Step(im.params)
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss)
		}
	}
	im.Freeze()
	return lastLoss, nil
}

func (im *IndividualModel) exitBackward(grad *tensor.Tensor) {
	g := im.exit.backward(grad)
	im.convp.BackwardParams(g.Reshape(g.Dim(0), im.convp.Filters(), im.fh, im.fw))
}

// Accuracy evaluates the individual model over every sample of the dataset
// (including frames where the object is absent, which it can only guess),
// matching the paper's definition of individual accuracy (§III-F).
func (im *IndividualModel) Accuracy(ds *dataset.Dataset, batchSize int) float64 {
	if batchSize <= 0 {
		batchSize = 32
	}
	labels := ds.Labels(nil)
	n := ds.Len()
	correct := 0
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		logits := im.Forward(ds.DeviceBatch(im.Device, idx), false)
		for i := range idx {
			if logits.ArgMaxRow(i) == labels[start+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
