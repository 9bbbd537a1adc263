package cluster

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// stagedExpectation is core's staged Evaluate decision for one sample
// (EvalResult.Exit) as the exit point and class the engine must return.
func stagedExpectation(res *core.EvalResult, pol branchy.Policy, i int) (wire.ExitPoint, int) {
	exits := []wire.ExitPoint{wire.ExitLocal, wire.ExitCloud}
	if res.EdgeProbs != nil {
		exits = []wire.ExitPoint{wire.ExitLocal, wire.ExitEdge, wire.ExitCloud}
	}
	e, probs := res.Exit(pol, i)
	return exits[e], core.Argmax(probs)
}

// checkStagedProbs reports a result whose probabilities are not, bit for
// bit, those of its exit in the staged reference. Results own their
// probabilities: one that still aliased a released reply frame would
// read another session's values, or poison under -tags ddnnpoison.
func checkStagedProbs(t *testing.T, got *Result, res *core.EvalResult, pol branchy.Policy, i int) {
	t.Helper()
	if _, want := res.Exit(pol, i); !slices.Equal(got.Probs, want) {
		t.Errorf("sample %d: probabilities %v, staged Evaluate says %v", i, got.Probs, want)
	}
}

// Degraded parity runs take device parityFailedDevice down for the whole
// run and give device parityAbsentDevice no frame for parityAbsentSample.
const (
	parityFailedDevice = 1
	parityAbsentDevice = 3
	parityAbsentSample = 5
)

// checkStagedParity asserts that the engine over the full test set
// produces exactly the exit point and prediction of core's staged
// Evaluate for every sample, at the given pipeline thresholds. batch <= 1
// runs every sample as its own one-sample session through
// Engine.ClassifyTenantShed; larger values drive Engine.ClassifyBatch in
// batch-sized multi-sample sessions. A degraded run (see the constants
// above) must match Evaluate under each sample's presence mask.
func checkStagedParity(t *testing.T, model *core.Model, test *dataset.Dataset, localT, edgeT float64, batch int, degraded bool) {
	t.Helper()
	var pol branchy.Policy
	if model.Cfg.UseEdge {
		pol = branchy.NewPolicy(localT, edgeT, 1)
	} else {
		pol = branchy.NewPolicy(localT, 1)
	}
	// refs[0] is the reference for the run's common presence mask,
	// refs[1] the one for parityAbsentSample.
	var masks [2][]bool
	ref := model.Evaluate(test, nil, 32)
	refs := [2]*core.EvalResult{ref, ref}
	if degraded {
		for k := range masks {
			masks[k] = make([]bool, model.Cfg.Devices)
			for d := range masks[k] {
				masks[k][d] = d != parityFailedDevice && (k == 0 || d != parityAbsentDevice)
			}
			refs[k] = model.Evaluate(test, masks[k], 32)
		}
	}

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = localT
	gcfg.EdgeThreshold = edgeT
	if degraded {
		// Sessions wait out the dead device until the failure detector
		// marks it down, within a few intervals; then they skip it.
		gcfg.DeviceTimeout = 500 * time.Millisecond
		gcfg.HeartbeatInterval = 50 * time.Millisecond
	}
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 8,
		Batch:          BatchConfig{MaxBatch: batch},
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if degraded {
		eng.Devices()[parityFailedDevice].SetFailed(true)
		dev := eng.Devices()[parityAbsentDevice]
		feed := dev.feed
		dev.feed = func(id uint64, dst []byte) error {
			if id == parityAbsentSample {
				return errors.New("object not in view")
			}
			return feed(id, dst)
		}
	}

	ids := make([]uint64, test.Len())
	for i := range ids {
		ids[i] = uint64(i)
	}
	var results []*Result
	if batch <= 1 {
		for _, id := range ids {
			r, err := eng.ClassifyTenantShed(context.Background(), id, "", ShedNone)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	} else {
		results, err = eng.ClassifyBatchTenantShed(context.Background(), ids, "", ShedNone)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range results {
		k := 0
		if i == parityAbsentSample {
			k = 1
		}
		wantExit, wantClass := stagedExpectation(refs[k], pol, i)
		if got.Exit != wantExit {
			t.Errorf("sample %d (batch %d): engine exited at %v, staged Evaluate says %v", i, batch, got.Exit, wantExit)
		}
		if got.Class != wantClass {
			t.Errorf("sample %d (batch %d): engine class %d, staged Evaluate says %d", i, batch, got.Class, wantClass)
		}
		checkStagedProbs(t, got, refs[k], pol, i)
		if degraded && !slices.Equal(got.Present, masks[k]) {
			t.Errorf("sample %d (batch %d): present %v, want %v", i, batch, got.Present, masks[k])
		}
	}
}

// TestEngineStagedParityDegraded is the parity contract under graceful
// degradation (§IV-G) on both hierarchies: with one device down and one
// sample missing another device's frame, one-sample and multi-sample
// sessions must match staged Evaluate under each sample's presence mask.
func TestEngineStagedParityDegraded(t *testing.T) {
	twoTier, test := fixture(t)
	threeTier, edgeTest := edgeFixture(t)
	for _, batch := range []int{1, 8} {
		checkStagedParity(t, twoTier, test, 0.5, 0.8, batch, true)
		checkStagedParity(t, threeTier, edgeTest, 0.5, 0.5, batch, true)
	}
}

// TestEngineStagedParityTwoTier checks end-to-end parity between the
// distributed serving runtime and in-process staged inference for the
// two-tier hierarchy, over the full test set at several thresholds.
func TestEngineStagedParityTwoTier(t *testing.T) {
	model, test := fixture(t)
	for _, localT := range []float64{0.3, 0.5, 0.8, 0.95} {
		checkStagedParity(t, model, test, localT, 0.8, 0, false)
	}
}

// TestEngineStagedParityTwoTierBatched is the same contract through the
// micro-batched path: batch sizes 1, 8 and 32 must all be bit-identical
// to core's staged Evaluate — batching may only change framing and
// dispatch, never decisions.
func TestEngineStagedParityTwoTierBatched(t *testing.T) {
	model, test := fixture(t)
	for _, batch := range []int{1, 8, 32} {
		for _, localT := range []float64{0.5, 0.8} {
			checkStagedParity(t, model, test, localT, 0.8, batch, false)
		}
	}
}

// TestEngineStagedParityEdgeTier is the same contract over the
// three-tier device→edge→cloud hierarchy: every sample must take the
// same exit — local, edge or cloud — and produce the same class as
// core's staged Evaluate, across several threshold pairs.
func TestEngineStagedParityEdgeTier(t *testing.T) {
	model, test := edgeFixture(t)
	for _, ts := range [][2]float64{
		{0.3, 0.8},
		{0.5, 0.5},
		{0.8, 0.3},
		{0.8, 0.8},
		{0.95, 0.95},
	} {
		checkStagedParity(t, model, test, ts[0], ts[1], 0, false)
	}
}

// TestEngineStagedParityEdgeTierBatched drives the batched path through
// all three tiers: partial exits must drop confident samples from the
// batch at the local and edge stages while the hard remainder rides to
// the cloud, with every verdict bit-identical to staged Evaluate.
func TestEngineStagedParityEdgeTierBatched(t *testing.T) {
	model, test := edgeFixture(t)
	for _, batch := range []int{1, 8, 32} {
		for _, ts := range [][2]float64{
			{0.5, 0.5},
			{0.8, 0.8},
		} {
			checkStagedParity(t, model, test, ts[0], ts[1], batch, false)
		}
	}
}

// apFixture trains a model whose features reach the upper tier through
// AP — the cloud's aggregator on two tiers, the edge's on three — and
// whose exit vectors are aggregated locally with the given scheme.
func apFixture(t *testing.T, edge bool, local agg.Scheme) (*core.Model, *dataset.Dataset) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 120, 40
	train, test := dataset.MustGenerate(dcfg)
	cfg := core.DefaultConfig()
	cfg.CloudFilters = 8
	cfg.UseEdge, cfg.LocalAgg, cfg.CloudAgg, cfg.EdgeAgg = edge, local, agg.AP, agg.AP
	m := core.MustNewModel(cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 2
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	return m, test
}

// TestEngineStagedParityAP is the parity contract with AP aggregation
// into the cloud (two tiers) and the edge (three tiers). A mean of ±1
// maps is not ternary, so these sessions take the float fallback of the
// bits-in forwards instead of bit planes; one-sample and batched
// sessions, and a degraded run, must still match staged Evaluate.
func TestEngineStagedParityAP(t *testing.T) {
	twoTier, test := apFixture(t, false, agg.MP)
	threeTier, edgeTest := apFixture(t, true, agg.MP)
	for _, batch := range []int{1, 8} {
		checkStagedParity(t, twoTier, test, 0.5, 0.8, batch, false)
		checkStagedParity(t, threeTier, edgeTest, 0.5, 0.5, batch, false)
	}
	checkStagedParity(t, twoTier, test, 0.5, 0.8, 8, true)
	checkStagedParity(t, threeTier, edgeTest, 0.5, 0.5, 8, true)
}

// TestEngineStagedParityLocalAgg runs the gateway's local stage with AP
// and CC local aggregation, where every other fixture uses MP. The runs
// are degraded at batch 8, so one session mixes presence masks: each
// sample's average must divide by its own device count, and the CC
// projection must see zeros for its own absent devices. The threshold is
// the median local entropy, so about half the samples exit locally.
func TestEngineStagedParityLocalAgg(t *testing.T) {
	for _, local := range []agg.Scheme{agg.AP, agg.CC} {
		model, test := apFixture(t, local == agg.CC, local)
		var entropies []float64
		for _, row := range model.Evaluate(test, nil, 32).LocalProbs {
			entropies = append(entropies, nn.NormalizedEntropy(row))
		}
		slices.Sort(entropies)
		localT := entropies[len(entropies)/2]
		checkStagedParity(t, model, test, localT, 0.5, 8, true)
	}
}
