package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// These tests pin the bits-in section forwards (CloudForwardBits,
// EdgeForwardBits, CloudForwardFromEdgeBits), which take a session's
// device features as the wire carries them, to the layered float
// sections of Evaluate's path — the aggregator's Forward and the
// section's forward in inference mode — evaluated one sample at a time
// under that sample's own presence mask.

// randomizeBN gives every batch norm random statistics and affine
// parameters, negative scales included, and re-derives the model's
// thresholds.
func randomizeBN(m *Model, rng *rand.Rand) {
	for _, bn := range m.batchNorms() {
		bn.RunningMean.FillUniform(rng, -3, 3)
		bn.RunningVar.FillUniform(rng, 0.25, 4)
		bn.Gamma.Value.FillUniform(rng, -1.5, 1.5)
		bn.Beta.Value.FillUniform(rng, -1, 1)
	}
	m.Freeze()
}

// sessionFeatures draws n samples' ±1 device feature maps and presence
// masks and packs them as a session's FeatureBatch payloads. Sample 0
// has a single present device, sample 1 none, and the rest random masks
// with repeats, so masks of one device, of none and of several all occur
// in one session.
func sessionFeatures(m *Model, n int, rng *rand.Rand) (maps [][]*tensor.Tensor, masks []uint16, feats [][]byte) {
	cfg := m.Cfg
	masks = make([]uint16, n)
	for i := range masks {
		switch i {
		case 0:
			masks[i] = 1 << uint(rng.Intn(cfg.Devices))
		case 1:
		default:
			masks[i] = uint16(rng.Intn(1 << uint(cfg.Devices)))
			if i%3 == 2 {
				masks[i] = masks[i-1]
			}
		}
	}
	maps = make([][]*tensor.Tensor, n)
	feats = make([][]byte, cfg.Devices)
	for i := range maps {
		maps[i] = make([]*tensor.Tensor, cfg.Devices)
		for d := range maps[i] {
			x := tensor.New(1, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
			if masks[i]&(1<<uint(d)) != 0 {
				fillSigns(x, rng)
				feats[d] = append(feats[d], bnn.PackSigns(x)...)
			}
			maps[i][d] = x
		}
	}
	return maps, masks, feats
}

// presence expands a per-sample presence mask into the training
// forward's per-device form.
func presence(mask uint16, devices int) []bool {
	present := make([]bool, devices)
	for d := range present {
		present[d] = mask&(1<<uint(d)) != 0
	}
	return present
}

// layeredSample is the oracle for one sample: the layered float forwards
// Evaluate runs, under the sample's own mask, returning the edge feature
// map and logits (nil without an edge tier) and the cloud logits.
func layeredSample(m *Model, maps []*tensor.Tensor, mask uint16) (edgeFeat, edgeLogits, cloudLogits *tensor.Tensor) {
	present := presence(mask, m.Cfg.Devices)
	if m.edge == nil {
		return nil, nil, m.cloud.forward(m.cloudAgg.Forward(maps, present, false), false)
	}
	edgeFeat = m.edge.convp.Forward(m.edgeAgg.Forward(maps, present, false), false)
	edgeLogits = m.edge.exit.forward(edgeFeat.Reshape(1, edgeFeat.Size()), false)
	return edgeFeat, edgeLogits, m.cloud.forward(edgeFeat, false)
}

// TestBitsInParityAllPaths runs sessions of random per-sample presence
// masks through the bits-in forwards on every path, with MP, CC and AP
// aggregation on both hierarchies and the §VI float cloud (AP and the
// float cloud take the float fallback), and requires every logit and
// every packed edge feature bit to equal the layered oracle's for that
// sample alone. The naive path runs the same bit-domain algorithms with
// the scalar kernels, so it is checked against the oracle like the
// others.
func TestBitsInParityAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pool := tensor.NewPool()
	for _, s := range agg.Schemes() {
		for _, g := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} { // edge, float cloud
			edge := g[0]
			if g[1] && s != agg.CC {
				continue
			}
			cfg := DefaultConfig()
			cfg.CloudFilters, cfg.EdgeFilters = 8, 8
			cfg.UseEdge, cfg.CloudAgg, cfg.EdgeAgg, cfg.FloatCloud = edge, s, s, g[1]
			m := MustNewModel(cfg)
			randomizeBN(m, rng)
			const n = 11
			maps, masks, feats := sessionFeatures(m, n, rng)
			name := fmt.Sprintf("%v edge=%v float-cloud=%v", s, edge, g[1])

			// The oracle: each sample alone, under its own mask.
			var wantLogits, wantEdge []*tensor.Tensor
			var wantBits [][]byte
			for i := 0; i < n; i++ {
				feat, edgeLogits, logits := layeredSample(m, maps[i], masks[i])
				wantLogits = append(wantLogits, logits)
				if edge {
					wantEdge = append(wantEdge, edgeLogits)
					wantBits = append(wantBits, bnn.PackSigns(feat))
				}
			}
			forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
				if !edge {
					logits := m.CloudForwardBits(feats, masks, pool)
					for i := 0; i < n; i++ {
						requireIdentical(t, fmt.Sprintf("%s path=%v sample %d (mask %b) cloud logits", name, p, i, masks[i]), wantLogits[i], tensor.FromSlice(logits.Row(i), 1, cfg.Classes))
					}
					pool.Put(logits)
					return
				}
				bits, logits := m.EdgeForwardBits(feats, masks, pool)
				stride := len(bits) / n
				for i := 0; i < n; i++ {
					requireIdentical(t, fmt.Sprintf("%s path=%v sample %d (mask %b) edge logits", name, p, i, masks[i]), wantEdge[i], tensor.FromSlice(logits.Row(i), 1, cfg.Classes))
					if !slices.Equal(bits[i*stride:(i+1)*stride], wantBits[i]) {
						t.Fatalf("%s path=%v sample %d (mask %b): packed edge features differ from the oracle's", name, p, i, masks[i])
					}
				}
				cloud := m.CloudForwardFromEdgeBits(bits, n, pool)
				for i := 0; i < n; i++ {
					requireIdentical(t, fmt.Sprintf("%s path=%v sample %d cloud-from-edge logits", name, p, i), wantLogits[i], tensor.FromSlice(cloud.Row(i), 1, cfg.Classes))
				}
				pool.PutBytes(bits)
				pool.Put(logits)
				pool.Put(cloud)
			})
		}
	}
}

// fuzzFilterCounts are the filter counts FuzzBitsInParity draws: with
// 1 to 16 devices of 1 to 8 filters they put the CC channel totals, and
// the edge and cloud blocks' inputs, on both sides of every 64-bit
// boundary of a kernel row (3C bits) and of a window (9C bits).
var fuzzFilterCounts = []int{1, 3, 7, 8, 14, 15, 16, 21, 22, 24, 28, 29, 64, 65}

// FuzzBitsInParity pins the bits-in section forwards — CloudForwardBits,
// EdgeForwardBits and CloudForwardFromEdgeBits — on every kernel path to
// the layered oracle, one sample at a time under its own presence mask
// (layeredSample), over model shapes the fixed tests do not reach. The
// fuzzer picks 1 to 16 devices, the device, edge and cloud filter
// counts (fuzzFilterCounts), MP or CC at the edge and the cloud, an edge
// tier or none, the frame size (feature maps of 4 to 24 pixels a side,
// odd section outputs included), the batch size, each sample's presence
// mask (all-absent rows included) and the weights' seed. Every edge and
// cloud ConvP block gets random batch-norm statistics, and a fuzzer byte
// per filter plants what the integer thresholds must survive, as
// FuzzConvPParity does: a NaN γ or β, γ = 0, or an exact zero crossing.
func FuzzBitsInParity(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(11), uint8(7), uint8(0x06), uint8(4), int64(1), []byte("bits-in-seed-0123456789"))
	f.Add(uint8(7), uint8(7), uint8(12), uint8(3), uint8(0x07), uint8(5), int64(2), []byte{0x00, 0xff, 0x13, 0x00, 0x3f})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(0), []byte{})
	f.Add(uint8(15), uint8(3), uint8(13), uint8(9), uint8(0x33), uint8(2), int64(3), []byte{0xff, 0xff, 0x00, 0x00, 0x81, 0x42})
	f.Add(uint8(2), uint8(7), uint8(1), uint8(11), uint8(0x25), uint8(3), int64(4), []byte("crossing"))
	f.Fuzz(func(t *testing.T, devr, dfr, cfr, efr, flags, nr uint8, seed int64, raw []byte) {
		cfg := DefaultConfig()
		cfg.Devices = 1 + int(devr)%16
		cfg.DeviceFilters = 1 + int(dfr)%8
		cfg.CloudFilters = fuzzFilterCounts[int(cfr)%len(fuzzFilterCounts)]
		cfg.EdgeFilters = fuzzFilterCounts[int(efr)%len(fuzzFilterCounts)]
		cfg.UseEdge = flags&1 != 0
		cfg.CloudAgg, cfg.EdgeAgg = agg.MP, agg.MP
		if flags&2 != 0 {
			cfg.CloudAgg = agg.CC
		}
		if flags&4 != 0 {
			cfg.EdgeAgg = agg.CC
		}
		// Frame sides that leave the cloud (behind the edge block, if any)
		// at least 4×4, two ConvP blocks' worth.
		sides := [4]int{8, 16, 24, 40}
		if cfg.UseEdge {
			sides = [4]int{16, 32, 48, 16}
		}
		cfg.InputC, cfg.InputH, cfg.InputW = 1, sides[flags>>3&3], sides[flags>>5&3]
		cfg.Seed = seed
		m := MustNewModel(cfg)
		byteAt := func(i int) byte {
			if len(raw) == 0 {
				return byte(i*131 + 17)
			}
			return raw[i%len(raw)]
		}
		rng := rand.New(rand.NewSource(seed))
		randomizeBN(m, rng)
		blocks := []*bnn.ConvP{m.cloud.b1.(*bnn.ConvP), m.cloud.b2.(*bnn.ConvP)}
		if m.edge != nil {
			blocks = append(blocks, m.edge.convp)
		}
		nan := float32(math.NaN())
		for bi, blk := range blocks {
			bn := blk.BN
			for ci := 0; ci < bn.C; ci++ {
				switch byteAt(1000+64*bi+ci) % 8 {
				case 0:
					bn.Gamma.Value.Data()[ci] = nan
				case 1:
					bn.Beta.Value.Data()[ci] = nan
				case 2:
					bn.Gamma.Value.Data()[ci] = 0
				case 3: // y = m − k exactly: pooled counts k land on the crossing
					bn.Gamma.Value.Data()[ci], bn.Beta.Value.Data()[ci] = 2, 0
					bn.RunningVar.Data()[ci] = 4 - bn.Eps
					bn.RunningMean.Data()[ci] = float32(int(byteAt(2000+64*bi+ci)) % 9)
				}
			}
		}
		m.Freeze()

		n := 1 + int(nr)%6
		full := uint16(1)<<uint(cfg.Devices) - 1
		masks := make([]uint16, n)
		maps := make([][]*tensor.Tensor, n)
		feats := make([][]byte, cfg.Devices)
		for i := range masks {
			masks[i] = (uint16(byteAt(2*i)) | uint16(byteAt(2*i+1))<<8) & full
			maps[i] = make([]*tensor.Tensor, cfg.Devices)
			for d := range maps[i] {
				x := tensor.New(1, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
				if masks[i]&(1<<uint(d)) != 0 {
					fillSigns(x, rng)
					feats[d] = append(feats[d], bnn.PackSigns(x)...)
				}
				maps[i][d] = x
			}
		}
		var wantLogits, wantEdge []*tensor.Tensor
		var wantBits [][]byte
		for i := 0; i < n; i++ {
			feat, edgeLogits, logits := layeredSample(m, maps[i], masks[i])
			wantLogits = append(wantLogits, logits)
			if m.edge != nil {
				wantEdge = append(wantEdge, edgeLogits)
				wantBits = append(wantBits, bnn.PackSigns(feat))
			}
		}

		name := fmt.Sprintf("devices=%d f=%d cloud=%d edge=%d (%v) agg=%v/%v %dx%d n=%d", cfg.Devices, cfg.DeviceFilters, cfg.CloudFilters, cfg.EdgeFilters, cfg.UseEdge, cfg.EdgeAgg, cfg.CloudAgg, cfg.InputH, cfg.InputW, n)
		pool := tensor.NewPool()
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			if m.edge == nil {
				logits := m.CloudForwardBits(feats, masks, pool)
				for i := 0; i < n; i++ {
					requireIdentical(t, fmt.Sprintf("%s path=%v sample %d (mask %b) cloud logits", name, p, i, masks[i]), wantLogits[i], tensor.FromSlice(logits.Row(i), 1, cfg.Classes))
				}
				pool.Put(logits)
				return
			}
			bits, logits := m.EdgeForwardBits(feats, masks, pool)
			stride := len(bits) / n
			for i := 0; i < n; i++ {
				requireIdentical(t, fmt.Sprintf("%s path=%v sample %d (mask %b) edge logits", name, p, i, masks[i]), wantEdge[i], tensor.FromSlice(logits.Row(i), 1, cfg.Classes))
				if !slices.Equal(bits[i*stride:(i+1)*stride], wantBits[i]) {
					t.Fatalf("%s path=%v sample %d (mask %b): packed edge features differ from the oracle's", name, p, i, masks[i])
				}
			}
			cloud := m.CloudForwardFromEdgeBits(bits, n, pool)
			for i := 0; i < n; i++ {
				requireIdentical(t, fmt.Sprintf("%s path=%v sample %d cloud-from-edge logits", name, p, i), wantLogits[i], tensor.FromSlice(cloud.Row(i), 1, cfg.Classes))
			}
			pool.PutBytes(bits)
			pool.Put(logits)
			pool.Put(cloud)
		})
	})
}
