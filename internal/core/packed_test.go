package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// These tests pin the bit-domain half of the serving forwards: exit heads
// on packed ±1 inputs (bnn.PackedLinear), the device's packed feature
// maps, and the packed weights following the latent ones through
// Freeze. The references are the training-path float layers.

func fillSigns(t *tensor.Tensor, rng *rand.Rand) {
	for i := range t.Data() {
		t.Data()[i] = float32(rng.Intn(2)*2 - 1)
	}
}

func requireIdentical(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if got.Data()[i] != w {
			t.Fatalf("%s: element %d = %g, want %g", what, i, got.Data()[i], w)
		}
	}
}

// TestExitHeadPackedParityAllPaths runs every binary exit head of both
// hierarchies on ±1 inputs through the serving forward on every path and
// requires the training path's float Linear + BatchNorm answer bit for
// bit.
func TestExitHeadPackedParityAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ecfg := DefaultConfig()
	ecfg.UseEdge = true
	m, em := MustNewModel(DefaultConfig()), MustNewModel(ecfg)
	heads := map[string]*exitHead{
		"device": m.devices[0].exit,
		"cloud":  m.cloud.exit.(*exitHead),
		"edge":   em.edge.exit,
	}
	pool := tensor.NewPool()
	for name, h := range heads {
		for _, n := range []int{1, 5} {
			x := tensor.New(n, h.lin.In())
			fillSigns(x, rng)
			want := h.forward(x, false)
			forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
				got := h.forwardPooled(x, pool)
				requireIdentical(t, fmt.Sprintf("%s head n=%d path=%v", name, n, p), want, got)
				pool.Put(got)
			})
		}
	}
}

// TestDeviceForwardPackedMatchesPooled pins DeviceForwardPacked on byte
// frames to DeviceForwardPooled on their values q/256 on every path: the
// bits are each sample's PackFeature bytes, the exit vectors are
// identical, and a warm pool serves it without touching the heap.
func TestDeviceForwardPackedMatchesPooled(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(3, m.Cfg.InputC, m.Cfg.InputH, m.Cfg.InputW)
	frames := make([]byte, len(x.Data()))
	for i := range frames {
		frames[i] = byte(rng.Intn(256))
		x.Data()[i] = float32(frames[i]) / 256
	}
	forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
		pool := tensor.NewPool()
		feat, want := m.DeviceForwardPooled(2, x, pool)
		bits, got := m.DeviceForwardPacked(2, frames, 3, pool)
		var wantBits []byte
		for i := 0; i < feat.Dim(0); i++ {
			one := tensor.FromSlice(feat.Sample(i), 1, feat.Dim(1), feat.Dim(2), feat.Dim(3))
			wantBits = append(wantBits, m.PackFeature(one)...)
		}
		if !bytes.Equal(bits, wantBits) {
			t.Fatalf("path=%v: packed feature bytes differ from PackFeature's", p)
		}
		requireIdentical(t, fmt.Sprintf("path=%v exit vector", p), want, got)
		pool.PutBytes(bits)
		pool.Put(got)
		requireZeroAllocs(t, fmt.Sprintf("path=%v: DeviceForwardPacked", p), func() {
			bits, exitVec := m.DeviceForwardPacked(2, frames, 3, pool)
			pool.PutBytes(bits)
			pool.Put(exitVec)
		})
	})
}

// TestResyncParityAllPaths flips a third of every binary layer's latent
// weights, as an optimizer step or a state load would, and re-syncs with
// Freeze: every section forward on every path must follow the new weights
// (the float convolution's, the XNOR convolution's and the exit heads'
// packed forms alike) and match the training-path Infer bit for bit.
func TestResyncParityAllPaths(t *testing.T) {
	for _, edge := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseEdge = edge
		m := MustNewModel(cfg)
		rng := rand.New(rand.NewSource(43))
		xs := make([]*tensor.Tensor, cfg.Devices)
		for d := range xs {
			xs[d] = tensor.New(3, cfg.InputC, cfg.InputH, cfg.InputW)
			xs[d].FillUniform(rng, 0, 1)
		}
		before := m.Infer(xs, nil)
		for _, p := range m.Params() {
			if strings.HasSuffix(p.Name, ".latent") {
				for i, v := range p.Value.Data() {
					if rng.Intn(3) == 0 {
						p.Value.Data()[i] = -v
					}
				}
			}
		}
		m.Freeze()
		want := m.Infer(xs, nil)
		changed := false
		for i, v := range want.Cloud.Data() {
			changed = changed || v != before.Cloud.Data()[i]
		}
		if !changed {
			t.Fatalf("edge=%v: flipping latent weights did not change the cloud logits", edge)
		}
		forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
			pool := tensor.NewPool()
			feats := make([]*tensor.Tensor, cfg.Devices)
			vecs := make([]*tensor.Tensor, cfg.Devices)
			for d := range xs {
				feats[d], vecs[d] = m.DeviceForwardPooled(d, xs[d], pool)
			}
			what := fmt.Sprintf("edge=%v path=%v", edge, p)
			requireIdentical(t, what+" local", want.Local, m.LocalAggregate(vecs, nil))
			if edge {
				ef, el := m.EdgeForwardPooled(feats, nil, pool)
				requireIdentical(t, what+" edge", want.Edge, el)
				requireIdentical(t, what+" cloud", want.Cloud, m.CloudForwardFromEdgePooled(ef, pool))
			} else {
				requireIdentical(t, what+" cloud", want.Cloud, m.CloudForwardPooled(feats, nil, pool))
			}
		})
	}
}
