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

// CloudForwardBits runs the cloud section of a two-tier model on one
// escalation session's device features as they arrive on the wire:
// masks[i] has bit d set when device d covers sample i, and feats[d] is
// device d's FeatureBatch payload, the PackFeature bytes of the
// samples it covers in sample order. It returns the [n, classes] logits
// from p (Put them back once consumed); row i is CloudForwardPooled's
// for sample i under its own mask, bit for bit.
//
// With an MP or CC aggregator and a binary cloud, on the go and simd
// paths, the features stay bits from the wire to the logits: they are
// aggregated straight into the first block's bit planes, each block
// writes its signs into the next one's input, and the exit head reads
// the last block's packed bytes. AP, whose mean of ±1 values is not
// ternary, the §VI float cloud and the naive path (the oracle) keep the
// float path: each group of samples sharing a mask is unpacked,
// aggregated and run through CloudForwardPooled's layers.
func (m *Model) CloudForwardBits(feats [][]byte, masks []uint16, p *tensor.Pool) *tensor.Tensor {
	if m.edge != nil {
		panic("core: CloudForward on an edge-tier model; use EdgeForward")
	}
	if in, ok := m.aggregateBits(m.cloudAgg, m.Cfg.CloudAgg, !m.Cfg.FloatCloud, feats, masks, p); ok {
		logits := m.cloud.forwardBits(in, p)
		in.Put(p)
		return logits
	}
	logits := p.GetDirty(len(masks), m.Cfg.Classes)
	m.forEachMaskGroup(m.cloudAgg, feats, masks, p, func(rows []int, in *tensor.Tensor) {
		l := m.cloud.forwardPooled(in, p)
		for k, i := range rows {
			copy(logits.Row(i), l.Row(k))
		}
		p.Put(l)
	})
	return logits
}

// EdgeForwardBits is CloudForwardBits for the edge section (edge-tier
// models only): it returns every sample's edge feature map as
// PackFeature bytes back to back — the EdgeFeatureBatch payload
// for the samples that escalate — and the edge-exit logits, both from p.
// An MP or CC edge aggregator keeps the features in bits throughout; AP
// and the naive path run EdgeForwardPooled's layers per mask group and
// pack the result.
func (m *Model) EdgeForwardBits(feats [][]byte, masks []uint16, p *tensor.Pool) (edgeBits []byte, edgeLogits *tensor.Tensor) {
	if m.edge == nil {
		panic("core: EdgeForward on a model without an edge tier")
	}
	n := len(masks)
	if in, ok := m.aggregateBits(m.edgeAgg, m.Cfg.EdgeAgg, true, feats, masks, p); ok {
		edgeBits = m.edge.convp.ForwardPacked(in, p)
		in.Put(p)
		return edgeBits, m.edge.exit.forwardBits(edgeBits, n, p)
	}
	stride := bnn.PackedSize(m.Cfg.EdgeFilters * (m.Cfg.FeatureH() / 2) * (m.Cfg.FeatureW() / 2))
	edgeBits, edgeLogits = p.GetBytes(n*stride), p.GetDirty(n, m.Cfg.Classes)
	m.forEachMaskGroup(m.edgeAgg, feats, masks, p, func(rows []int, in *tensor.Tensor) {
		feat := m.edge.convp.ForwardPooled(in, p)
		l := m.edge.exit.forwardPooled(feat, p)
		bits := packSamples(feat, p)
		for k, i := range rows {
			copy(edgeBits[i*stride:(i+1)*stride], bits[k*stride:(k+1)*stride])
			copy(edgeLogits.Row(i), l.Row(k))
		}
		p.PutBytes(bits)
		p.Put(l)
		p.Put(feat)
	})
	return edgeBits, edgeLogits
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

// CloudForwardFromEdgeBits runs the cloud section on n edge feature
// maps packed back to back as EdgeForwardBits returns them — an
// EdgeFeatureBatch payload — and returns the logits from p. A binary
// cloud reads the bytes straight into its first block's planes on the
// go and simd paths; the float cloud and the naive path unpack them for
// CloudForwardFromEdgePooled's layers.
func (m *Model) CloudForwardFromEdgeBits(edgeBits []byte, n int, p *tensor.Pool) *tensor.Tensor {
	if m.edge == nil {
		panic("core: CloudForwardFromEdge on a model without an edge tier")
	}
	f, eh, ew := m.Cfg.EdgeFilters, m.Cfg.FeatureH()/2, m.Cfg.FeatureW()/2
	stride := bnn.PackedSize(f * eh * ew)
	if len(edgeBits) != n*stride {
		panic(fmt.Sprintf("core: %d bytes of edge features for %d samples of %d", len(edgeBits), n, stride))
	}
	if onBits(!m.Cfg.FloatCloud) {
		in := bnn.GetPlanes(p, n, f, eh, ew)
		for i := 0; i < n; i++ {
			in.Place(i, 0, [][]byte{edgeBits[i*stride : (i+1)*stride]}, f)
		}
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

// onBits reports whether a section of binary blocks runs in the bit
// domain: on the go and simd paths. The naive path is the float oracle.
func onBits(binary bool) bool { return binary && tensor.CurrentKernelPath() != tensor.KernelNaive }

// aggregateBits aggregates a session's packed device features (see
// CloudForwardBits) into the bit planes of a section fed by a, when a
// has a bit form and the section runs on bits.
func (m *Model) aggregateBits(a agg.Aggregator, s agg.Scheme, binary bool, feats [][]byte, masks []uint16, p *tensor.Pool) (bnn.Planes, bool) {
	ba, ok := a.(agg.BitAggregator)
	if !ok || !onBits(binary) {
		return bnn.Planes{}, false
	}
	cfg := m.Cfg
	m.checkFeats(feats)
	in := bnn.GetPlanes(p, len(masks), agg.FeatureOutChannels(s, cfg.Devices, cfg.DeviceFilters), cfg.FeatureH(), cfg.FeatureW())
	ba.AggregateBits(in, feats, masks)
	return in, true
}

// MaskGroup is a batch subset whose samples share one device-presence
// mask, so one masked forward pass covers it and stays bit-identical to
// running each sample alone.
type MaskGroup struct {
	Mask uint16
	// Rows are the batch positions, in batch order.
	Rows []int
	// Present is the mask expanded to per-device booleans.
	Present []bool
}

// MaskGroups splits batch positions by presence mask, bit d for device
// d, in order of first appearance; the common all-devices-up case is a
// single group spanning the batch.
func MaskGroups(masks []uint16, devices int) []MaskGroup {
	var groups []MaskGroup
	at := make(map[uint16]int)
	for i, m := range masks {
		gi, ok := at[m]
		if !ok {
			present := make([]bool, devices)
			for d := range present {
				present[d] = m&(1<<uint(d)) != 0
			}
			gi = len(groups)
			at[m] = gi
			groups = append(groups, MaskGroup{Mask: m, Present: present})
		}
		groups[gi].Rows = append(groups[gi].Rows, i)
	}
	return groups
}

// forEachMaskGroup is the float path of the bits-in forwards: for each
// mask group it unpacks the group's features into per-device ±1 maps
// (zero for an absent device, as in masked training), aggregates them
// with a and hands fn the group's sample indices and aggregated input,
// which goes back to p when fn returns.
func (m *Model) forEachMaskGroup(a agg.Aggregator, feats [][]byte, masks []uint16, p *tensor.Pool, fn func(rows []int, in *tensor.Tensor)) {
	cfg := m.Cfg
	m.checkFeats(feats)
	stride := bnn.PackedSize(cfg.DeviceFilters * cfg.FeatureSize())
	maps := make([]*tensor.Tensor, cfg.Devices)
	for _, g := range MaskGroups(masks, cfg.Devices) {
		for d := range maps {
			maps[d] = p.Get(len(g.Rows), cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
			for k, i := range g.Rows {
				if !g.Present[d] {
					break
				}
				at := 0 // sample i's place among the samples d covers
				for _, before := range masks[:i] {
					if before&(1<<uint(d)) != 0 {
						at++
					}
				}
				_ = bnn.UnpackSignsInto(maps[d].Sample(k), feats[d][at*stride:(at+1)*stride]) // sized by stride
			}
		}
		in := agg.ForwardPooled(a, maps, g.Present, p)
		for _, t := range maps {
			p.Put(t)
		}
		fn(g.Rows, in)
		p.Put(in)
	}
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

// UnpackFeature reverses PackFeature into a [1, F, H, W] ±1 tensor.
func (m *Model) UnpackFeature(bits []byte, f, h, w int) (*tensor.Tensor, error) {
	return bnn.UnpackSigns(bits, 1, f, h, w)
}

// UnpackFeatureInto reverses PackFeature's bytes for one sample into
// sample row i of a pre-allocated batched ±1 tensor.
func (m *Model) UnpackFeatureInto(dst *tensor.Tensor, i int, bits []byte) error {
	return bnn.UnpackSignsInto(dst.Sample(i), bits)
}
