package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// These tests pin the kernel dispatch layer at the section level: a
// model forward must produce bit-identical tensors on every dispatch
// path (the per-path zero-allocation contract is in pooled_test.go) and
// stay correct when many goroutines share one pool on the SIMD path
// (the -race run of this file is the data-race gate for the assembly
// kernels' Go wrappers).

// forEachKernelPath runs fn once per supported dispatch path, forcing
// the path for the duration and restoring the previous one after.
func forEachKernelPath(t *testing.T, fn func(t *testing.T, p tensor.KernelPath)) {
	t.Helper()
	prev := tensor.CurrentKernelPath()
	defer func() {
		if err := tensor.SetKernelPath(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, p := range tensor.KernelPaths() {
		if err := tensor.SetKernelPath(p); err != nil {
			t.Fatalf("SetKernelPath(%v): %v", p, err)
		}
		fn(t, p)
	}
}

// TestSectionForwardsMatchAcrossPaths runs the device, edge and
// cloud-from-edge section forwards once per dispatch path and requires
// each to equal the layered oracle — the training-path layers Evaluate
// runs, in inference mode — bit for bit: the chaos and staged-parity
// suites assume a classification is a pure function of the model and
// input, independent of which kernels the host selected.
func TestSectionForwardsMatchAcrossPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := DefaultConfig()
	cfg.UseEdge = true
	m := MustNewModel(cfg)
	x := tensor.New(2, m.Cfg.InputC, m.Cfg.InputH, m.Cfg.InputW)
	x.FillUniform(rng, 0, 1)
	feats := make([]*tensor.Tensor, m.Cfg.Devices)
	for d := range feats {
		feats[d] = tensor.New(2, m.Cfg.DeviceFilters, m.Cfg.FeatureH(), m.Cfg.FeatureW())
		feats[d].FillUniform(rng, -1, 1)
	}

	dev := m.devices[0]
	feat := dev.convp.Forward(x, false)
	exitVec := dev.exit.forward(feat.Reshape(2, feat.Size()/2), false)
	ef := m.edge.convp.Forward(m.edgeAgg.Forward(feats, nil, false), false)
	el := m.edge.exit.forward(ef.Reshape(2, ef.Size()/2), false)
	logits := m.cloud.forward(ef, false)
	forEachKernelPath(t, func(t *testing.T, p tensor.KernelPath) {
		f, e := m.DeviceForward(0, x)
		efp, elp := m.EdgeForward(feats, nil)
		lg := m.CloudForwardFromEdge(efp)
		requireIdentical(t, fmt.Sprintf("device feat path=%v", p), feat, f)
		requireIdentical(t, fmt.Sprintf("device exit path=%v", p), exitVec, e)
		requireIdentical(t, fmt.Sprintf("edge feat path=%v", p), ef, efp)
		requireIdentical(t, fmt.Sprintf("edge logits path=%v", p), el, elp)
		requireIdentical(t, fmt.Sprintf("cloud logits path=%v", p), logits, lg)
	})
}

// TestSharedPoolConcurrentForwards runs many concurrent device and
// cloud forwards through one shared tensor.Pool on the default
// (best-supported, SIMD where available) path, each compared against
// the serial result. Under -race this is the concurrency gate for the
// dispatch layer and the assembly wrappers.
func TestSharedPoolConcurrentForwards(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := MustNewModel(DefaultConfig())
	x := tensor.New(1, m.Cfg.InputC, m.Cfg.InputH, m.Cfg.InputW)
	x.FillUniform(rng, 0, 1)
	feats := make([]*tensor.Tensor, m.Cfg.Devices)
	for d := range feats {
		feats[d] = tensor.New(1, m.Cfg.DeviceFilters, m.Cfg.FeatureH(), m.Cfg.FeatureW())
		feats[d].FillUniform(rng, -1, 1)
	}
	wantFeats := make([]*tensor.Tensor, m.Cfg.Devices)
	wantExits := make([]*tensor.Tensor, m.Cfg.Devices)
	for d := 0; d < m.Cfg.Devices; d++ {
		wantFeats[d], wantExits[d] = m.DeviceForward(d, x)
	}
	wantLogits := m.CloudForward(feats, nil)

	pool := tensor.NewPool()
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d := (w + r) % m.Cfg.Devices
				feat, exitVec := m.DeviceForwardPooled(d, x, pool)
				for i, want := range wantFeats[d].Data() {
					if feat.Data()[i] != want {
						errs <- errMismatch("device feat", d, i)
						return
					}
				}
				for i, want := range wantExits[d].Data() {
					if exitVec.Data()[i] != want {
						errs <- errMismatch("device exit", d, i)
						return
					}
				}
				logits := m.CloudForwardPooled(feats, nil, pool)
				for i, want := range wantLogits.Data() {
					if logits.Data()[i] != want {
						errs <- errMismatch("cloud logits", d, i)
						return
					}
				}
				pool.Put(feat)
				pool.Put(exitVec)
				pool.Put(logits)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func errMismatch(what string, device, i int) error {
	return fmt.Errorf("%s: device %d element %d diverged from the serial result", what, device, i)
}
