package core

import (
	"fmt"
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
// sections evaluated one sample at a time under that sample's own
// presence mask on the naive path.

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
// with repeats, so groups of one device, of none and of several are all
// present.
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

func presentOf(mask uint16, devices int) []bool {
	p := make([]bool, devices)
	for d := range p {
		p[d] = mask&(1<<uint(d)) != 0
	}
	return p
}

// naive runs fn on the naive path, the layered oracle.
func naive(t *testing.T, fn func()) {
	t.Helper()
	prev := tensor.CurrentKernelPath()
	if err := tensor.SetKernelPath(tensor.KernelNaive); err != nil {
		t.Fatal(err)
	}
	defer tensor.SetKernelPath(prev)
	fn()
}

// TestBitsInParityAllPaths runs sessions of random per-sample presence
// masks through the bits-in forwards on every path, with MP, CC and AP
// aggregation on both hierarchies and the §VI float cloud (AP and the
// float cloud take the float fallback), and requires every logit and
// every packed edge feature bit to equal the layered oracle's for that
// sample alone.
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
			naive(t, func() {
				for i := 0; i < n; i++ {
					present := presentOf(masks[i], cfg.Devices)
					if !edge {
						wantLogits = append(wantLogits, m.CloudForward(maps[i], present))
						continue
					}
					feat, logits := m.EdgeForward(maps[i], present)
					wantEdge = append(wantEdge, logits)
					wantBits = append(wantBits, bnn.PackSigns(feat))
					wantLogits = append(wantLogits, m.CloudForwardFromEdge(feat))
				}
			})
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
