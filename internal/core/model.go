package core

import (
	"fmt"
	"math/rand"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// exitHead maps a (flattened) feature vector to class logits: a binarized
// linear layer followed by batch normalization. It is the paper's FC block
// without the final binary activation, because exit points must emit
// floating-point class vectors — the local aggregator consumes "a
// floating-point vector of length equal to the number of classes" (§IV-C)
// and the entropy criterion needs a probability distribution.
type exitHead struct {
	lin *bnn.BinaryLinear
	bn  *nn.BatchNorm
}

// head is the common surface of binary and floating-point exit heads, so
// the mixed-precision cloud (§VI) can swap implementations.
type head interface {
	forward(x *tensor.Tensor, train bool) *tensor.Tensor
	forwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor
	backward(grad *tensor.Tensor) *tensor.Tensor
	params() []*nn.Param
	memoryBits() int
	batchNorm() *nn.BatchNorm
	syncWeights()
}

var (
	_ head = (*exitHead)(nil)
	_ head = (*floatExitHead)(nil)
)

func newExitHead(rng *rand.Rand, name string, in, classes int) *exitHead {
	return &exitHead{
		lin: bnn.NewBinaryLinear(rng, name+".exit", in, classes),
		bn:  nn.NewBatchNorm(name+".exitbn", classes),
	}
}

func (e *exitHead) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return e.bn.Forward(e.lin.Forward(x, train), train)
}

// forwardPooled accepts the unflattened ±1 feature map directly and runs
// the head on its sign bits (forwardBits).
func (e *exitHead) forwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	bits := packSamples(x, p)
	out := e.forwardBits(bits, x.Dim(0), p)
	p.PutBytes(bits)
	return out
}

// forwardBits runs the head on n samples bit-packed back to back
// (bnn.PackSamplesInto). A head's input is a binary ConvP block's output,
// exactly ±1 by construction, so its sign bits lose nothing and the
// XNOR-popcount pre-activations equal the float GEMM's exact integer sums.
func (e *exitHead) forwardBits(bits []byte, n int, p *tensor.Pool) *tensor.Tensor {
	lin := e.lin.Packed()
	y := p.GetDirty(n, lin.Out)
	stride := len(bits) / n
	for i := 0; i < n; i++ {
		if err := lin.ForwardInto(y.Row(i), bits[i*stride:(i+1)*stride]); err != nil {
			panic(err) // the sections size bits from the same model
		}
	}
	out := e.bn.ForwardPooled(y, p)
	p.Put(y)
	return out
}

// packSamples bit-packs every sample of x into a buffer drawn from p.
func packSamples(x *tensor.Tensor, p *tensor.Pool) []byte {
	bits := p.GetBytes(x.Dim(0) * bnn.PackedSize(x.SampleSize()))
	bnn.PackSamplesInto(bits, x)
	return bits
}

func (e *exitHead) backward(grad *tensor.Tensor) *tensor.Tensor {
	return e.lin.Backward(e.bn.Backward(grad))
}

func (e *exitHead) params() []*nn.Param {
	return append(e.lin.Params(), e.bn.Params()...)
}

func (e *exitHead) memoryBits() int { return e.lin.WeightBits() + 2*32*e.bn.C }

func (e *exitHead) batchNorm() *nn.BatchNorm { return e.bn }

func (e *exitHead) syncWeights() { e.lin.SyncWeights() }

// floatExitHead is the floating-point exit used by mixed-precision clouds:
// a plain linear layer with bias and batch normalization.
type floatExitHead struct {
	lin *nn.Linear
	bn  *nn.BatchNorm
}

func newFloatExitHead(rng *rand.Rand, name string, in, classes int) *floatExitHead {
	return &floatExitHead{
		lin: nn.NewLinear(rng, name+".exit", in, classes, true),
		bn:  nn.NewBatchNorm(name+".exitbn", classes),
	}
}

func (e *floatExitHead) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return e.bn.Forward(e.lin.Forward(x, train), train)
}

func (e *floatExitHead) forwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	y := e.lin.ForwardPooled(x, p)
	out := e.bn.ForwardPooled(y, p)
	p.Put(y)
	return out
}

func (e *floatExitHead) backward(grad *tensor.Tensor) *tensor.Tensor {
	return e.lin.Backward(e.bn.Backward(grad))
}

func (e *floatExitHead) params() []*nn.Param {
	return append(e.lin.Params(), e.bn.Params()...)
}

func (e *floatExitHead) memoryBits() int {
	return 32*(e.lin.Weight.Value.Size()+e.lin.Bias.Value.Size()) + 2*32*e.bn.C
}

func (e *floatExitHead) batchNorm() *nn.BatchNorm { return e.bn }

func (e *floatExitHead) syncWeights() {} // no derived weights

// deviceSection is the slice of the DDNN that runs on one end device: a
// ConvP block producing the binarized feature map that is uploaded on a
// local-exit miss, plus the exit head feeding the local aggregator
// (Fig. 4, red blocks).
type deviceSection struct {
	convp *bnn.ConvP
	exit  *exitHead
}

// cloudSection is the slice that runs in the cloud: two conv-pool blocks
// over the aggregated device (or edge) features and the final exit head
// (Fig. 4, blue blocks). The blocks are binary by default; with the
// mixed-precision option of §VI they are floating-point while the device
// sections stay binary.
type cloudSection struct {
	b1, b2 nn.Layer
	exit   head

	featShape []int // b2 output shape, cached during training forward
}

func newCloudSection(rng *rand.Rand, name string, inC, f, inH, inW, classes int, floatCloud bool) *cloudSection {
	outH, outW := inH/4, inW/4
	if outH < 1 || outW < 1 {
		panic(fmt.Sprintf("core: cloud input %d×%d too small for two ConvP blocks", inH, inW))
	}
	if floatCloud {
		return &cloudSection{
			b1:   nn.NewConvPoolBlock(rng, name+".b1", inC, f),
			b2:   nn.NewConvPoolBlock(rng, name+".b2", f, f),
			exit: newFloatExitHead(rng, name, f*outH*outW, classes),
		}
	}
	return &cloudSection{
		b1:   bnn.NewConvP(rng, name+".b1", inC, f),
		b2:   bnn.NewConvP(rng, name+".b2", f, f),
		exit: newExitHead(rng, name, f*outH*outW, classes),
	}
}

func (c *cloudSection) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := c.b1.Forward(x, train)
	y = c.b2.Forward(y, train)
	if train {
		c.featShape = y.Shape()
	}
	n := y.Dim(0)
	return c.exit.forward(y.Reshape(n, y.Size()/n), train)
}

// forwardPooled runs the section on a float map. A binary section's b1
// runs the float tile and places its ±1 output into b2's bit planes, so
// b2 and the exit head run on bits as in forwardBits.
func (c *cloudSection) forwardPooled(x *tensor.Tensor, p *tensor.Pool) *tensor.Tensor {
	b1, ok := c.b1.(*bnn.ConvP)
	if !ok {
		y1 := nn.ForwardPooled(c.b1, x, p)
		y2 := nn.ForwardPooled(c.b2, y1, p)
		p.Put(y1)
		logits := c.exit.forwardPooled(y2, p)
		p.Put(y2)
		return logits
	}
	y1 := b1.ForwardPooled(x, p)
	bits := packSamples(y1, p)
	mid := bnn.PlacePacked(p, bits, y1.Dim(0), y1.Dim(1), y1.Dim(2), y1.Dim(3))
	p.PutBytes(bits)
	p.Put(y1)
	return c.forwardTail(mid, p)
}

// forwardBits runs a binary cloud section on bit planes: b1 writes b2's
// planes and b2 the exit head's packed bytes (see CloudForwardBits).
func (c *cloudSection) forwardBits(in bnn.Planes, p *tensor.Pool) *tensor.Tensor {
	return c.forwardTail(c.b1.(*bnn.ConvP).ForwardPlanes(in, p), p)
}

// forwardTail runs b2 and the exit head of a binary section on b2's
// input planes, and returns the planes to p.
func (c *cloudSection) forwardTail(mid bnn.Planes, p *tensor.Pool) *tensor.Tensor {
	bits := c.b2.(*bnn.ConvP).ForwardPacked(mid, p)
	mid.Put(p)
	logits := c.exit.(*exitHead).forwardBits(bits, mid.N, p)
	p.PutBytes(bits)
	return logits
}

func (c *cloudSection) backward(grad *tensor.Tensor) *tensor.Tensor {
	g := c.exit.backward(grad)
	g = g.Reshape(c.featShape...)
	g = c.b2.Backward(g)
	return c.b1.Backward(g)
}

func (c *cloudSection) params() []*nn.Param {
	ps := c.b1.Params()
	ps = append(ps, c.b2.Params()...)
	return append(ps, c.exit.params()...)
}

// edgeSection is the optional middle tier (configurations (d)/(e) of
// Fig. 2): one ConvP block over the aggregated device features, an edge
// exit head, and a feature output forwarded to the cloud.
type edgeSection struct {
	convp *bnn.ConvP
	exit  *exitHead

	featShape []int
}

func newEdgeSection(rng *rand.Rand, name string, inC, f, inH, inW, classes int) *edgeSection {
	return &edgeSection{
		convp: bnn.NewConvP(rng, name+".convp", inC, f),
		exit:  newExitHead(rng, name, f*(inH/2)*(inW/2), classes),
	}
}

func (e *edgeSection) params() []*nn.Param {
	return append(e.convp.Params(), e.exit.params()...)
}

// Model is a DDNN: per-device sections, aggregators at each exit point, an
// optional edge tier, and the cloud section, all trained jointly.
type Model struct {
	Cfg Config

	devices  []*deviceSection
	localAgg agg.Aggregator
	edgeAgg  agg.Aggregator // nil without edge tier
	edge     *edgeSection   // nil without edge tier
	cloudAgg agg.Aggregator // nil with edge tier (single edge feeds cloud directly)
	cloud    *cloudSection

	params []*nn.Param
}

// NewModel builds a DDNN from a validated configuration.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	fh, fw := cfg.FeatureH(), cfg.FeatureW()
	featIn := cfg.DeviceFilters * fh * fw
	for d := 0; d < cfg.Devices; d++ {
		name := fmt.Sprintf("dev%d", d)
		m.devices = append(m.devices, &deviceSection{
			convp: bnn.NewConvP(rng, name+".convp", cfg.InputC, cfg.DeviceFilters),
			exit:  newExitHead(rng, name, featIn, cfg.Classes),
		})
	}
	m.localAgg = agg.NewVector(rng, "local", cfg.LocalAgg, cfg.Devices, cfg.Classes)
	if cfg.UseEdge {
		m.edgeAgg = agg.NewFeature(cfg.EdgeAgg, cfg.Devices)
		edgeInC := agg.FeatureOutChannels(cfg.EdgeAgg, cfg.Devices, cfg.DeviceFilters)
		m.edge = newEdgeSection(rng, "edge", edgeInC, cfg.EdgeFilters, fh, fw, cfg.Classes)
		m.cloud = newCloudSection(rng, "cloud", cfg.EdgeFilters, cfg.CloudFilters, fh/2, fw/2, cfg.Classes, cfg.FloatCloud)
	} else {
		m.cloudAgg = agg.NewFeature(cfg.CloudAgg, cfg.Devices)
		cloudInC := agg.FeatureOutChannels(cfg.CloudAgg, cfg.Devices, cfg.DeviceFilters)
		m.cloud = newCloudSection(rng, "cloud", cloudInC, cfg.CloudFilters, fh, fw, cfg.Classes, cfg.FloatCloud)
	}

	for _, d := range m.devices {
		m.params = append(m.params, d.convp.Params()...)
		m.params = append(m.params, d.exit.params()...)
	}
	m.params = append(m.params, m.localAgg.Params()...)
	if m.edge != nil {
		m.params = append(m.params, m.edgeAgg.Params()...)
		m.params = append(m.params, m.edge.params()...)
	}
	if m.cloudAgg != nil {
		m.params = append(m.params, m.cloudAgg.Params()...)
	}
	m.params = append(m.params, m.cloud.params()...)
	m.Freeze()
	return m, nil
}

// MustNewModel is NewModel for known-good configs; it panics on error.
func MustNewModel(cfg Config) *Model {
	m, err := NewModel(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns every learnable parameter of the DDNN.
func (m *Model) Params() []*nn.Param { return m.params }

// ParamCount returns the total number of scalar parameters.
func (m *Model) ParamCount() int { return nn.CountParams(m.params) }

// DeviceMemoryBytes returns the eBNN deployment footprint of one device's
// section (ConvP block + exit head), which the paper keeps under 2 KB
// (§IV-F).
func (m *Model) DeviceMemoryBytes() int {
	d := m.devices[0]
	bits := d.convp.MemoryBits() + d.exit.memoryBits()
	return (bits + 7) / 8
}

// CloudMemoryBytes returns the deployment footprint of the cloud section.
// Binary clouds store 1 bit per weight; mixed-precision clouds (§VI) store
// 32 — the cloud has no memory constraint, which is why the paper suggests
// spending the bits there.
func (m *Model) CloudMemoryBytes() int {
	bits := m.cloud.exit.memoryBits()
	for _, b := range []nn.Layer{m.cloud.b1, m.cloud.b2} {
		mm, ok := b.(interface{ MemoryBits() int })
		if !ok {
			panic(fmt.Sprintf("core: conv block %T lacks MemoryBits", b))
		}
		bits += mm.MemoryBits()
	}
	return (bits + 7) / 8
}

// Logits bundles the raw class scores produced at each exit point.
type Logits struct {
	Local *tensor.Tensor
	Edge  *tensor.Tensor // nil without an edge tier
	Cloud *tensor.Tensor
}

// checkInputs validates a per-device input batch.
func (m *Model) checkInputs(xs []*tensor.Tensor) int {
	if len(xs) != m.Cfg.Devices {
		panic(fmt.Sprintf("core: model has %d devices, got %d inputs", m.Cfg.Devices, len(xs)))
	}
	n := xs[0].Dim(0)
	for d, x := range xs {
		if x.Dims() != 4 || x.Dim(0) != n || x.Dim(1) != m.Cfg.InputC || x.Dim(2) != m.Cfg.InputH || x.Dim(3) != m.Cfg.InputW {
			panic(fmt.Sprintf("core: device %d input shape %v, want [%d %d %d %d]", d, x.Shape(), n, m.Cfg.InputC, m.Cfg.InputH, m.Cfg.InputW))
		}
	}
	return n
}

// forward runs the full DDNN. mask marks present devices (nil = all).
func (m *Model) forward(xs []*tensor.Tensor, mask []bool, train bool) Logits {
	n := m.checkInputs(xs)
	feats := make([]*tensor.Tensor, m.Cfg.Devices)
	exitVecs := make([]*tensor.Tensor, m.Cfg.Devices)
	fh, fw := m.Cfg.FeatureH(), m.Cfg.FeatureW()
	for d, dev := range m.devices {
		if mask != nil && !mask[d] {
			// Failed device: contributes nothing; placeholders keep the
			// aggregator shapes consistent.
			feats[d] = tensor.New(n, m.Cfg.DeviceFilters, fh, fw)
			exitVecs[d] = tensor.New(n, m.Cfg.Classes)
			continue
		}
		feat := dev.convp.Forward(xs[d], train)
		feats[d] = feat
		exitVecs[d] = dev.exit.forward(feat.Reshape(n, feat.Size()/n), train)
	}
	out := Logits{Local: m.localAgg.Forward(exitVecs, mask, train)}
	if m.edge != nil {
		edgeIn := m.edgeAgg.Forward(feats, mask, train)
		edgeFeat := m.edge.convp.Forward(edgeIn, train)
		if train {
			m.edge.featShape = edgeFeat.Shape()
		}
		out.Edge = m.edge.exit.forward(edgeFeat.Reshape(n, edgeFeat.Size()/n), train)
		out.Cloud = m.cloud.forward(edgeFeat, train)
	} else {
		cloudIn := m.cloudAgg.Forward(feats, mask, train)
		out.Cloud = m.cloud.forward(cloudIn, train)
	}
	return out
}

// Infer runs the DDNN without caching gradients. mask marks present
// devices for fault-tolerance evaluation (nil = all present).
func (m *Model) Infer(xs []*tensor.Tensor, mask []bool) Logits {
	return m.forward(xs, mask, false)
}

// TrainStep runs one joint forward/backward pass, accumulating parameter
// gradients for the weighted multi-exit loss Σₙ wₙ·L(exitₙ) (§III-C) with
// equal weights. The caller is responsible for zeroing gradients before and
// stepping the optimizer after. It returns the total loss and the per-exit
// losses.
func (m *Model) TrainStep(xs []*tensor.Tensor, labels []int) (total float64, perExit []float64) {
	logits := m.forward(xs, nil, true)

	localLoss, localGrad := nn.SoftmaxCrossEntropy(logits.Local, labels, 1)
	cloudLoss, cloudGrad := nn.SoftmaxCrossEntropy(logits.Cloud, labels, 1)
	perExit = []float64{localLoss, cloudLoss}
	var edgeGrad *tensor.Tensor
	if m.edge != nil {
		var edgeLoss float64
		edgeLoss, edgeGrad = nn.SoftmaxCrossEntropy(logits.Edge, labels, 1)
		perExit = []float64{localLoss, edgeLoss, cloudLoss}
	}
	for _, l := range perExit {
		total += l
	}

	n := xs[0].Dim(0)
	fh, fw := m.Cfg.FeatureH(), m.Cfg.FeatureW()

	// Gradient of each device's uploaded feature map, accumulated from the
	// cloud (and edge) branch and the local-exit branch.
	featGrads := make([]*tensor.Tensor, m.Cfg.Devices)

	if m.edge != nil {
		// Cloud branch backward into the edge feature map.
		dEdgeFeat := m.cloud.backward(cloudGrad)
		// Edge exit backward adds into the same feature map.
		gEdge := m.edge.exit.backward(edgeGrad)
		dEdgeFeat.Add(gEdge.Reshape(m.edge.featShape...))
		dEdgeIn := m.edge.convp.Backward(dEdgeFeat)
		for d, g := range m.edgeAgg.Backward(dEdgeIn) {
			featGrads[d] = g
		}
	} else {
		dCloudIn := m.cloud.backward(cloudGrad)
		for d, g := range m.cloudAgg.Backward(dCloudIn) {
			featGrads[d] = g
		}
	}

	// Local exit backward: aggregator splits the gradient per device, then
	// each exit head maps it back onto the device's feature map.
	exitGrads := m.localAgg.Backward(localGrad)
	for d, dev := range m.devices {
		gFlat := dev.exit.backward(exitGrads[d])
		featGrads[d].Add(gFlat.Reshape(n, m.Cfg.DeviceFilters, fh, fw))
		dev.convp.Backward(featGrads[d])
	}
	return total, perExit
}
