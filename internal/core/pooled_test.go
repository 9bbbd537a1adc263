package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// TestPooledForwardsMatchUnpooled checks every tier's pooled section
// forward against the plain allocation path — the pooled serving runtime
// must be bit-identical, including when the pool hands back recycled
// dirty buffers (hence several rounds through one pool).
func TestPooledForwardsMatchUnpooled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := MustNewModel(DefaultConfig())
	pool := tensor.NewPool()

	equal := func(name string, a, b *tensor.Tensor) {
		t.Helper()
		if !a.SameShape(b) {
			t.Fatalf("%s: shape %v vs %v", name, a.Shape(), b.Shape())
		}
		for i, v := range a.Data() {
			if b.Data()[i] != v {
				t.Fatalf("%s: element %d = %g pooled, %g unpooled", name, i, b.Data()[i], v)
			}
		}
	}

	for round := 0; round < 3; round++ {
		x := tensor.New(2, m.Cfg.InputC, m.Cfg.InputH, m.Cfg.InputW)
		x.FillUniform(rng, 0, 1)
		feat, exitVec := m.DeviceForward(0, x)
		pfeat, pexit := m.DeviceForwardPooled(0, x, pool)
		equal("device feat", feat, pfeat)
		equal("device exit", exitVec, pexit)

		feats := make([]*tensor.Tensor, m.Cfg.Devices)
		for d := range feats {
			feats[d] = tensor.New(2, m.Cfg.DeviceFilters, m.Cfg.FeatureH(), m.Cfg.FeatureW())
			feats[d].FillUniform(rng, -1, 1)
		}
		masks := []uint16{0b011101, 0b000110}
		logits := m.CloudForward(feats, masks)
		plogits := m.CloudForwardPooled(feats, masks, pool)
		equal("cloud logits", logits, plogits)

		pool.Put(pfeat)
		pool.Put(pexit)
		pool.Put(plogits)
	}

	// Edge tier: EdgeForwardPooled + CloudForwardFromEdgePooled.
	ecfg := DefaultConfig()
	ecfg.UseEdge = true
	em := MustNewModel(ecfg)
	feats := make([]*tensor.Tensor, em.Cfg.Devices)
	for d := range feats {
		feats[d] = tensor.New(1, em.Cfg.DeviceFilters, em.Cfg.FeatureH(), em.Cfg.FeatureW())
		feats[d].FillUniform(rng, -1, 1)
	}
	ef, el := em.EdgeForward(feats, nil)
	pef, pel := em.EdgeForwardPooled(feats, nil, pool)
	equal("edge feat", ef, pef)
	equal("edge logits", el, pel)
	cl := em.CloudForwardFromEdge(ef)
	pcl := em.CloudForwardFromEdgePooled(pef, pool)
	equal("cloud-from-edge logits", cl, pcl)
}

// requireZeroAllocs warms run's pool and then requires run to touch the
// heap zero times. The pool's free lists are deliberately GC-proof (not
// sync.Pool), so this is stable, not a lucky average.
func requireZeroAllocs(t *testing.T, what string, run func()) {
	t.Helper()
	for i := 0; i < 3; i++ {
		run()
	}
	if n := testing.AllocsPerRun(10, run); n > 0.5 {
		t.Errorf("%s allocates %.2f times per run, want 0", what, n)
	}
}

// zeroAllocBatches are the batch sizes of the zero-allocation contract:
// single-sample serving and the engine's micro-batch cap.
var zeroAllocBatches = []int{1, 32}

// deviceFeats returns one random ±-valued feature map per device.
func deviceFeats(m *Model, rng *rand.Rand, batch int) []*tensor.Tensor {
	feats := make([]*tensor.Tensor, m.Cfg.Devices)
	for d := range feats {
		feats[d] = tensor.New(batch, m.Cfg.DeviceFilters, m.Cfg.FeatureH(), m.Cfg.FeatureW())
		feats[d].FillUniform(rng, -1, 1)
	}
	return feats
}

// TestDeviceForwardPooledZeroAllocs verifies the zero-alloc contract of
// the serving path: once the pool is warm, a device section forward
// touches the heap zero times, at batch 1 and batch 32, on every
// dispatch path (the SIMD wrappers are //go:noescape for exactly this).
func TestDeviceForwardPooledZeroAllocs(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	for _, batch := range zeroAllocBatches {
		x := tensor.New(batch, m.Cfg.InputC, m.Cfg.InputH, m.Cfg.InputW)
		x.FillUniform(rng, 0, 1)
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			pool := tensor.NewPool()
			requireZeroAllocs(t, fmt.Sprintf("path=%v batch=%d: DeviceForwardPooled", p, batch), func() {
				feat, exitVec := m.DeviceForwardPooled(0, x, pool)
				pool.Put(exitVec)
				pool.Put(feat)
			})
		})
	}
}

// TestEdgeForwardPooledZeroAllocs is the same contract for the edge
// section (aggregation + one ConvP block + exit head).
func TestEdgeForwardPooledZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseEdge = true
	m := MustNewModel(cfg)
	rng := rand.New(rand.NewSource(1))
	for _, batch := range zeroAllocBatches {
		feats := deviceFeats(m, rng, batch)
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			pool := tensor.NewPool()
			requireZeroAllocs(t, fmt.Sprintf("path=%v batch=%d: EdgeForwardPooled", p, batch), func() {
				edgeFeat, logits := m.EdgeForwardPooled(feats, nil, pool)
				pool.Put(logits)
				pool.Put(edgeFeat)
			})
		})
	}
}

// TestCloudForwardPooledZeroAllocs is the same contract for the cloud
// section (aggregation + two ConvP blocks + exit head).
func TestCloudForwardPooledZeroAllocs(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	for _, batch := range zeroAllocBatches {
		feats := deviceFeats(m, rng, batch)
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			pool := tensor.NewPool()
			requireZeroAllocs(t, fmt.Sprintf("path=%v batch=%d: CloudForwardPooled", p, batch), func() {
				pool.Put(m.CloudForwardPooled(feats, nil, pool))
			})
		})
	}
}
