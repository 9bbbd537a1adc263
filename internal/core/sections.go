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
// PackFeature bytes back to back, drawn from p (PutBytes it back
// once consumed), and exitVec comes from p too. The float map goes back
// to p before it returns. The same bits feed the exit head, so the map
// is packed once.
func (m *Model) DeviceForwardPacked(device int, x *tensor.Tensor, p *tensor.Pool) (bits []byte, exitVec *tensor.Tensor) {
	dev := m.device(device)
	feat := dev.convp.ForwardPooled(x, p)
	bits = packSamples(feat, p)
	exitVec = dev.exit.forwardBits(bits, feat.Dim(0), p)
	p.Put(feat)
	return bits, exitVec
}

func (m *Model) device(i int) *deviceSection {
	if i < 0 || i >= m.Cfg.Devices {
		panic(fmt.Sprintf("core: device %d out of range [0,%d)", i, m.Cfg.Devices))
	}
	return m.devices[i]
}

// LocalAggregate combines per-device exit vectors into local-exit logits,
// each sample under its own presence mask: masks[i] has bit d set when
// device d covers sample i, and nil means every device covers every
// sample. Row i equals the aggregation of sample i alone under its mask.
func (m *Model) LocalAggregate(exitVecs []*tensor.Tensor, masks []uint16) *tensor.Tensor {
	return m.localAgg.ForwardPooled(exitVecs, masks, nil)
}

// CloudForward aggregates per-device feature maps and runs the cloud
// section, returning cloud-exit logits. masks are per-sample presence
// masks as LocalAggregate takes them (nil = all). It must not be used on
// models built with an edge tier; those use EdgeForward first.
func (m *Model) CloudForward(feats []*tensor.Tensor, masks []uint16) *tensor.Tensor {
	return m.CloudForwardPooled(feats, masks, nil)
}

// CloudForwardPooled is CloudForward drawing the aggregation buffer,
// layer intermediates and returned logits from a tensor pool; the caller
// should Put the logits back once consumed. A nil pool allocates.
func (m *Model) CloudForwardPooled(feats []*tensor.Tensor, masks []uint16, p *tensor.Pool) *tensor.Tensor {
	if m.edge != nil {
		panic("core: CloudForward on an edge-tier model; use EdgeForward")
	}
	cloudIn := m.cloudAgg.ForwardPooled(feats, masks, p)
	logits := m.cloud.forwardPooled(cloudIn, p)
	p.Put(cloudIn)
	return logits
}

// CloudForwardBits runs the cloud section of a two-tier model on one
// escalation session's device features as they arrive on the wire:
// masks[i] has bit d set when device d covers sample i, and feats[d] is
// device d's FeatureBatch payload, the PackFeature bytes of the
// samples it covers in sample order. It returns the [n, classes] logits
// from p (Put them back once consumed); row i is CloudForwardPooled's
// for sample i under its own mask, bit for bit.
//
// With an MP or CC aggregator and a binary cloud the features stay bits
// from the wire to the logits: they are aggregated straight into the
// first block's bit planes, each block writes its signs into the next
// one's input, and the exit head reads the last block's packed bytes.
// AP, whose mean of ±1 values is not ternary, and the §VI float cloud
// keep the float path: the session is unpacked into batch-wide device
// maps (see unpackSession) for one CloudForwardPooled.
func (m *Model) CloudForwardBits(feats [][]byte, masks []uint16, p *tensor.Pool) *tensor.Tensor {
	if m.edge != nil {
		panic("core: CloudForward on an edge-tier model; use EdgeForward")
	}
	if in, ok := m.aggregateBits(m.cloudAgg, m.Cfg.CloudAgg, !m.Cfg.FloatCloud, feats, masks, p); ok {
		logits := m.cloud.forwardBits(in, p)
		in.Put(p)
		return logits
	}
	maps := m.unpackSession(feats, masks, p)
	logits := m.CloudForwardPooled(maps, masks, p)
	for _, t := range maps {
		p.Put(t)
	}
	return logits
}

// EdgeForwardBits is CloudForwardBits for the edge section (edge-tier
// models only): it returns every sample's edge feature map as
// PackFeature bytes back to back — the EdgeFeatureBatch payload
// for the samples that escalate — and the edge-exit logits, both from p.
// An MP or CC edge aggregator keeps the features in bits throughout; AP
// unpacks the session for one EdgeForwardPooled and packs its feature
// map.
func (m *Model) EdgeForwardBits(feats [][]byte, masks []uint16, p *tensor.Pool) (edgeBits []byte, edgeLogits *tensor.Tensor) {
	if m.edge == nil {
		panic("core: EdgeForward on a model without an edge tier")
	}
	if in, ok := m.aggregateBits(m.edgeAgg, m.Cfg.EdgeAgg, true, feats, masks, p); ok {
		edgeBits = m.edge.convp.ForwardPacked(in, p)
		in.Put(p)
		return edgeBits, m.edge.exit.forwardBits(edgeBits, len(masks), p)
	}
	maps := m.unpackSession(feats, masks, p)
	feat, edgeLogits := m.EdgeForwardPooled(maps, masks, p)
	for _, t := range maps {
		p.Put(t)
	}
	edgeBits = packSamples(feat, p)
	p.Put(feat)
	return edgeBits, edgeLogits
}

// EdgeForward aggregates device feature maps and runs the edge section,
// returning the edge feature map (forwarded to the cloud) and edge-exit
// logits, each sample under its own presence mask (see LocalAggregate).
// It is only valid on models built with UseEdge.
func (m *Model) EdgeForward(feats []*tensor.Tensor, masks []uint16) (edgeFeat, edgeLogits *tensor.Tensor) {
	return m.EdgeForwardPooled(feats, masks, nil)
}

// EdgeForwardPooled is EdgeForward drawing its outputs and scratch from
// a tensor pool: both returned tensors come from p, and the caller
// should Put them back once consumed. A nil pool allocates.
func (m *Model) EdgeForwardPooled(feats []*tensor.Tensor, masks []uint16, p *tensor.Pool) (edgeFeat, edgeLogits *tensor.Tensor) {
	if m.edge == nil {
		panic("core: EdgeForward on a model without an edge tier")
	}
	edgeIn := m.edgeAgg.ForwardPooled(feats, masks, p)
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

// CloudForwardFromEdgeBits runs the cloud section on n edge feature
// maps packed back to back as EdgeForwardBits returns them — an
// EdgeFeatureBatch payload — and returns the logits from p. A binary
// cloud reads the bytes straight into its first block's planes; the
// float cloud unpacks them for CloudForwardFromEdgePooled's layers.
func (m *Model) CloudForwardFromEdgeBits(edgeBits []byte, n int, p *tensor.Pool) *tensor.Tensor {
	if m.edge == nil {
		panic("core: CloudForwardFromEdge on a model without an edge tier")
	}
	f, eh, ew := m.Cfg.EdgeFilters, m.Cfg.FeatureH()/2, m.Cfg.FeatureW()/2
	stride := bnn.PackedSize(f * eh * ew)
	if len(edgeBits) != n*stride {
		panic(fmt.Sprintf("core: %d bytes of edge features for %d samples of %d", len(edgeBits), n, stride))
	}
	if !m.Cfg.FloatCloud {
		in := bnn.PlacePacked(p, edgeBits, n, f, eh, ew)
		logits := m.cloud.forwardBits(in, p)
		in.Put(p)
		return logits
	}
	feat := p.GetDirty(n, f, eh, ew)
	for i := 0; i < n; i++ {
		_ = bnn.UnpackSignsInto(feat.Sample(i), edgeBits[i*stride:(i+1)*stride]) // sized above
	}
	logits := m.cloud.forwardPooled(feat, p)
	p.Put(feat)
	return logits
}

// aggregateBits aggregates a session's packed device features (see
// CloudForwardBits) into the bit planes of a section fed by a, when a
// has a bit form and the section's blocks are binary.
func (m *Model) aggregateBits(a agg.Aggregator, s agg.Scheme, binary bool, feats [][]byte, masks []uint16, p *tensor.Pool) (bnn.Planes, bool) {
	ba, ok := a.(agg.BitAggregator)
	if !ok || !binary {
		return bnn.Planes{}, false
	}
	cfg := m.Cfg
	m.checkFeats(feats)
	in := bnn.GetPlanes(p, len(masks), agg.FeatureOutChannels(s, cfg.Devices, cfg.DeviceFilters), cfg.FeatureH(), cfg.FeatureW())
	ba.AggregateBits(in, feats, masks)
	return in, true
}

// unpackSession is the float fallback of the bits-in forwards: it
// unpacks each device's packed features (see CloudForwardBits) into one
// batch-wide ±1 map from p, a row per sample the device covers. Rows it
// does not cover stay zero, as for an absent device in masked training.
func (m *Model) unpackSession(feats [][]byte, masks []uint16, p *tensor.Pool) []*tensor.Tensor {
	cfg := m.Cfg
	m.checkFeats(feats)
	stride := bnn.PackedSize(cfg.DeviceFilters * cfg.FeatureSize())
	maps := make([]*tensor.Tensor, cfg.Devices)
	for d := range maps {
		maps[d] = p.Get(len(masks), cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
		rest := feats[d]
		for i, mask := range masks {
			if mask&(1<<uint(d)) != 0 {
				_ = bnn.UnpackSignsInto(maps[d].Sample(i), rest[:stride]) // sized by stride
				rest = rest[stride:]
			}
		}
	}
	return maps
}

// checkFeats panics unless feats has one entry per device, the
// bits-in forwards' contract.
func (m *Model) checkFeats(feats [][]byte) {
	if len(feats) != m.Cfg.Devices {
		panic(fmt.Sprintf("core: %d device feature sets for %d devices", len(feats), m.Cfg.Devices))
	}
}

// PackFeature bit-packs one sample's binarized feature map for upload
// (eBNN representation, charged at f·o/8 bytes by Eq. 1). The tensor must
// hold a single sample [1, F, H, W].
func (m *Model) PackFeature(feat *tensor.Tensor) []byte {
	return bnn.PackSigns(feat)
}

// UnpackFeatureInto reverses PackFeature's bytes for one sample into
// sample row i of a pre-allocated batched ±1 tensor.
func (m *Model) UnpackFeatureInto(dst *tensor.Tensor, i int, bits []byte) error {
	return bnn.UnpackSignsInto(dst.Sample(i), bits)
}
