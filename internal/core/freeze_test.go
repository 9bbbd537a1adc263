package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// TestInferenceForwardsAreReadOnly drives every section forward used by the
// cluster runtime from many goroutines at once. On a frozen model these
// paths must not write any shared state, so the test passes under -race
// only if inference is genuinely read-only — the property that lets
// concurrent serving sessions share one model without serializing.
func TestInferenceForwardsAreReadOnly(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 60, 20
	train, test := dataset.MustGenerate(dcfg)
	cfg := DefaultConfig()
	cfg.CloudFilters = 8
	m := MustNewModel(cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			device := w % cfg.Devices
			for r := 0; r < rounds; r++ {
				id := (w*rounds + r) % test.Len()
				x := test.DeviceBatch(device, []int{id})
				feat, exitVec := m.DeviceForward(device, x)

				vecs := make([]*tensor.Tensor, cfg.Devices)
				feats := make([]*tensor.Tensor, cfg.Devices)
				for d := range vecs {
					vecs[d] = tensor.New(1, cfg.Classes)
					feats[d] = tensor.New(1, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
				}
				copy(vecs[device].Row(0), exitVec.Row(0))
				feats[device] = feat
				masks := []uint16{1 << uint(device)}

				m.LocalAggregate(vecs, masks)
				m.CloudForwardPooled(feats, masks, nil)
			}
		}(w)
	}
	wg.Wait()
}

// TestFreezeSyncsBinarizedWeights checks that a manual parameter change is
// invisible to inference until Freeze re-derives the binarized weights.
func TestFreezeSyncsBinarizedWeights(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewModel(cfg)
	x := tensor.New(1, cfg.InputC, cfg.InputH, cfg.InputW)
	x.FillUniform(rand.New(rand.NewSource(7)), 0, 1)

	_, before := m.DeviceForward(0, x)
	beforeRow := append([]float32(nil), before.Row(0)...)

	// Flip every latent weight of device 0's conv; without Freeze the
	// effective (binarized) weights must be unchanged.
	latent := m.devices[0].convp.Conv.Latent.Value
	ld := latent.Data()
	for i := range ld {
		ld[i] = -ld[i]
	}
	_, stale := m.DeviceForward(0, x)
	for i, v := range stale.Row(0) {
		if v != beforeRow[i] {
			t.Fatalf("inference picked up unsynced latents at %d: %g != %g", i, v, beforeRow[i])
		}
	}

	m.Freeze()
	_, after := m.DeviceForward(0, x)
	same := true
	for i, v := range after.Row(0) {
		if v != beforeRow[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("Freeze did not re-derive binarized weights from flipped latents")
	}
}

// TestFreezeReleasesTrainingState checks that a trained model keeps no
// more live heap than a fresh one: Train's closing Freeze releases the
// last batch's cached activations and the layers' training scratch,
// which serving never reads. Backward then panics, as on a fresh model.
func TestFreezeReleasesTrainingState(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 64, 8
	train, _ := dataset.MustGenerate(dcfg)
	cfg := DefaultConfig()
	retained := func(build func() *Model) (*Model, int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return m, int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	freshModel, fresh := retained(func() *Model { return MustNewModel(cfg) })
	m, trained := retained(func() *Model {
		m := MustNewModel(cfg)
		tc := DefaultTrainConfig()
		tc.Epochs = 1
		if _, err := m.Train(train, tc); err != nil {
			t.Fatal(err)
		}
		return m
	})
	runtime.KeepAlive(freshModel)
	runtime.KeepAlive(train)
	t.Logf("live heap: fresh model %d B, trained model %d B", fresh, trained)
	const slack = 256 << 10
	if trained > fresh+slack {
		t.Errorf("trained model keeps %d B of live heap, a fresh one %d B", trained, fresh)
	}
	defer func() {
		if recover() == nil {
			t.Error("device block Backward after Train did not panic")
		}
	}()
	g := tensor.New(2, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
	m.devices[0].convp.Backward(g)
}
