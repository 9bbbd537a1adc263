package core

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// The methods in this file expose the DDNN's sections individually so the
// cluster runtime can place each section on its own node (device, edge,
// cloud), mirroring how the trained network is mapped onto the physical
// hierarchy in §III-A. All methods run in inference mode and are
// read-only on a frozen model (NewModel, Train and LoadStateDict freeze
// automatically; see Freeze), so any number of concurrent sessions may
// call them on the same Model without locking.

// DeviceForward runs one device's section on a batch of its sensor views,
// returning the binarized feature map (uploaded to the cloud on a
// local-exit miss) and the exit summary vector sent to the local
// aggregator.
func (m *Model) DeviceForward(device int, x *tensor.Tensor) (feat, exitVec *tensor.Tensor) {
	return m.DeviceForwardPooled(device, x, nil)
}

// DeviceForwardPooled is DeviceForward drawing its outputs and scratch
// from a tensor pool: both returned tensors come from p, and the caller
// should Put them back once consumed. A nil pool allocates, making
// DeviceForward the p == nil special case.
func (m *Model) DeviceForwardPooled(device int, x *tensor.Tensor, p *tensor.Pool) (feat, exitVec *tensor.Tensor) {
	dev := m.device(device)
	feat = dev.convp.ForwardPooled(x, p)
	exitVec = dev.exit.forwardPooled(feat, p)
	return feat, exitVec
}

// DeviceForwardPacked is DeviceForwardPooled for a node that ships the
// feature map rather than computing on it: bits holds each sample's
// PackFeatureSample bytes back to back, drawn from p (PutBytes it back
// once consumed), and exitVec comes from p too. The float map goes back
// to p before it returns. On the go and simd paths the same bits feed the
// exit head, so the map is packed once.
func (m *Model) DeviceForwardPacked(device int, x *tensor.Tensor, p *tensor.Pool) (bits []byte, exitVec *tensor.Tensor) {
	dev := m.device(device)
	feat := dev.convp.ForwardPooled(x, p)
	bits = packSamples(feat, p)
	if tensor.CurrentKernelPath() == tensor.KernelNaive {
		exitVec = dev.exit.forwardFloat(feat, p)
	} else {
		exitVec = dev.exit.forwardBits(bits, feat.Dim(0), p)
	}
	p.Put(feat)
	return bits, exitVec
}

func (m *Model) device(i int) *deviceSection {
	if i < 0 || i >= m.Cfg.Devices {
		panic(fmt.Sprintf("core: device %d out of range [0,%d)", i, m.Cfg.Devices))
	}
	return m.devices[i]
}

// LocalAggregate combines per-device exit vectors into local-exit logits.
// mask marks present devices (nil = all).
func (m *Model) LocalAggregate(exitVecs []*tensor.Tensor, mask []bool) *tensor.Tensor {
	return m.localAgg.Forward(exitVecs, mask, false)
}

// CloudForward aggregates per-device feature maps and runs the cloud
// section, returning cloud-exit logits. mask marks present devices (nil =
// all). It must not be used on models built with an edge tier; those use
// EdgeForward first.
func (m *Model) CloudForward(feats []*tensor.Tensor, mask []bool) *tensor.Tensor {
	return m.CloudForwardPooled(feats, mask, nil)
}

// CloudForwardPooled is CloudForward drawing the aggregation buffer,
// layer intermediates and returned logits from a tensor pool; the caller
// should Put the logits back once consumed. A nil pool allocates.
func (m *Model) CloudForwardPooled(feats []*tensor.Tensor, mask []bool, p *tensor.Pool) *tensor.Tensor {
	if m.edge != nil {
		panic("core: CloudForward on an edge-tier model; use EdgeForward")
	}
	cloudIn := agg.ForwardPooled(m.cloudAgg, feats, mask, p)
	logits := m.cloud.forwardPooled(cloudIn, p)
	p.Put(cloudIn)
	return logits
}

// EdgeForward aggregates device feature maps and runs the edge section,
// returning the edge feature map (forwarded to the cloud) and edge-exit
// logits. It is only valid on models built with UseEdge.
func (m *Model) EdgeForward(feats []*tensor.Tensor, mask []bool) (edgeFeat, edgeLogits *tensor.Tensor) {
	return m.EdgeForwardPooled(feats, mask, nil)
}

// EdgeForwardPooled is EdgeForward drawing its outputs and scratch from
// a tensor pool: both returned tensors come from p, and the caller
// should Put them back once consumed. A nil pool allocates.
func (m *Model) EdgeForwardPooled(feats []*tensor.Tensor, mask []bool, p *tensor.Pool) (edgeFeat, edgeLogits *tensor.Tensor) {
	if m.edge == nil {
		panic("core: EdgeForward on a model without an edge tier")
	}
	edgeIn := agg.ForwardPooled(m.edgeAgg, feats, mask, p)
	edgeFeat = m.edge.convp.ForwardPooled(edgeIn, p)
	p.Put(edgeIn)
	edgeLogits = m.edge.exit.forwardPooled(edgeFeat, p)
	return edgeFeat, edgeLogits
}

// CloudForwardFromEdge runs the cloud section on an edge feature map
// (edge-tier models only).
func (m *Model) CloudForwardFromEdge(edgeFeat *tensor.Tensor) *tensor.Tensor {
	return m.CloudForwardFromEdgePooled(edgeFeat, nil)
}

// CloudForwardFromEdgePooled is CloudForwardFromEdge against a tensor
// pool; the caller should Put the returned logits back once consumed.
func (m *Model) CloudForwardFromEdgePooled(edgeFeat *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	if m.edge == nil {
		panic("core: CloudForwardFromEdge on a model without an edge tier")
	}
	return m.cloud.forwardPooled(edgeFeat, p)
}

// PackFeature bit-packs one sample's binarized feature map for upload
// (eBNN representation, charged at f·o/8 bytes by Eq. 1). The tensor must
// hold a single sample [1, F, H, W].
func (m *Model) PackFeature(feat *tensor.Tensor) []byte {
	return bnn.PackSigns(feat)
}

// UnpackFeature reverses PackFeature into a [1, F, H, W] ±1 tensor.
func (m *Model) UnpackFeature(bits []byte, f, h, w int) (*tensor.Tensor, error) {
	return bnn.UnpackSigns(bits, 1, f, h, w)
}

// PackFeatureSample bit-packs sample i of a batched [N, F, H, W] feature
// map, producing exactly the bytes PackFeature would for that sample
// alone. Batched sessions pack each sample separately so partial exits
// can drop samples from the upload without re-packing the rest.
func (m *Model) PackFeatureSample(feat *tensor.Tensor, i int) []byte {
	return bnn.PackSignsSample(feat, i)
}

// UnpackFeatureInto reverses PackFeatureSample into sample row i of a
// pre-allocated batched ±1 tensor.
func (m *Model) UnpackFeatureInto(dst *tensor.Tensor, i int, bits []byte) error {
	return bnn.UnpackSignsInto(dst.Sample(i), bits)
}
