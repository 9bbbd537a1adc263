package chaos

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
)

var (
	twoTierOnce   sync.Once
	twoTierModel  *core.Model
	twoTierTest   *dataset.Dataset
	threeTierOnce sync.Once
	threeTierMod  *core.Model
	threeTierTest *dataset.Dataset
)

func trainFixture(useEdge bool) (*core.Model, *dataset.Dataset) {
	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 120, 40
	train, test := dataset.MustGenerate(dcfg)
	cfg := core.DefaultConfig()
	cfg.UseEdge = useEdge
	cfg.CloudFilters = 8
	m := core.MustNewModel(cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 3
	if _, err := m.Train(train, tc); err != nil {
		panic(err)
	}
	return m, test
}

func twoTier(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	twoTierOnce.Do(func() { twoTierModel, twoTierTest = trainFixture(false) })
	return twoTierModel, twoTierTest
}

func threeTier(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	threeTierOnce.Do(func() { threeTierMod, threeTierTest = trainFixture(true) })
	return threeTierMod, threeTierTest
}

// faultWindow scales the chaos window down under -short so the -race
// CI run stays inside its budget while still spanning many
// failure-detection cycles.
func faultWindow() time.Duration {
	if testing.Short() {
		return 1200 * time.Millisecond
	}
	return 3 * time.Second
}

// runSeed executes one full chaos run and fails the test with the
// reproducing seed on any invariant violation.
func runSeed(t *testing.T, model *core.Model, ds *dataset.Dataset, seed int64) *Report {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.FaultWindow = faultWindow()
	h, err := New(model, ds, cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	rep := h.Run(context.Background())
	if v := rep.Violations(); len(v) > 0 {
		t.Fatalf("seed %d: %d invariant violations (replay: go test ./internal/chaos -run TestChaos -v, or ddnn-chaos -seed %d)\n%s",
			seed, len(v), seed, rep)
	}
	if rep.Checked() == 0 {
		t.Fatalf("seed %d: verifier checked no classifications — traffic never flowed\n%s", seed, rep)
	}
	if rep.Faults() == 0 {
		t.Fatalf("seed %d: no faults were injected\n%s", seed, rep)
	}
	t.Logf("seed %d: %d classifications verified, %d faults across %d kinds", seed, rep.Checked(), rep.Faults(), rep.FaultKinds())
	return rep
}

// TestChaosSeededThreeTier runs the full fault mix — device kills,
// replica kills and restarts, partitions, degraded links, liveness
// flaps, corrupt frames — over the three-tier replicated topology with
// two fixed seeds.
func TestChaosSeededThreeTier(t *testing.T) {
	model, test := threeTier(t)
	for _, seed := range []int64{1, 2} {
		runSeed(t, model, test, seed)
	}
}

// TestChaosSeededTwoTier covers the edge-less hierarchy, where the
// gateway escalates straight to the cloud pool.
func TestChaosSeededTwoTier(t *testing.T) {
	model, test := twoTier(t)
	runSeed(t, model, test, 3)
}

// TestChaosSeededMembershipChurn pushes the versioned-membership plane
// specifically: devices leave and rejoin through RemoveDevice/AdmitDevice
// cycles while the rest of the fault mix runs, and every completed
// classification must still verify bit-identical under the presence mask
// and config version its session pinned.
func TestChaosSeededMembershipChurn(t *testing.T) {
	model, test := threeTier(t)
	rep := runSeed(t, model, test, 5)
	if rep.FaultCount("device-leave") == 0 {
		t.Fatalf("seed 5 injected no membership churn; faults: %d kinds", rep.FaultKinds())
	}
}

// TestChaosSeededModelRollout pushes the model lifecycle plane
// specifically: the rollout actor registers versioned artifacts
// (including corrupt uploads that must bounce), rolls the fleet across
// versions and rolls out to a NaN-weights artifact the canary must
// refuse while the full fault mix runs. Every completed classification
// must verify bit-identical against the weights of the model version its
// session pinned, and the canary must have refused at least once: the
// actor makes that refusal its first goal in every run.
func TestChaosSeededModelRollout(t *testing.T) {
	model, test := threeTier(t)
	rep := runSeed(t, model, test, 8)
	if rep.FaultCount("model-register") == 0 {
		t.Fatalf("seed 8 registered no model artifacts; faults: %d kinds", rep.FaultKinds())
	}
	if rep.FaultCount("model-rollout")+rep.FaultCount("model-rollout-refused") == 0 {
		t.Fatalf("seed 8 completed no rollouts and had none refused; faults: %d kinds", rep.FaultKinds())
	}
	if rep.FaultCount("model-rollout-refused") == 0 {
		t.Fatalf("seed 8 had no rollout refused by the canary; faults: %d kinds", rep.FaultKinds())
	}
}

// TestChaosRandomSeed explores a fresh schedule every run; the seed is
// logged so any failure is replayable bit-for-bit.
func TestChaosRandomSeed(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("random chaos seed %d (replay: ddnn-chaos -seed %d, or hardcode it in runSeed)", seed, seed)
	model, test := twoTier(t)
	runSeed(t, model, test, seed)
}

// TestReportCurve pins the availability bucketing arithmetic.
func TestReportCurve(t *testing.T) {
	r := newReport(7, time.Hour) // one bucket
	r.Record(OutcomeOK)
	r.Record(OutcomeOK)
	r.Record(OutcomeDegraded)
	r.Record(OutcomeRejected)
	r.mu.Lock()
	c := r.buckets[0]
	r.mu.Unlock()
	if c.OK != 2 || c.Degraded != 1 || c.Rejected != 1 || c.Failed != 0 {
		t.Fatalf("bucket = %+v", c)
	}
	if got := c.available(); got != 0.75 {
		t.Fatalf("availability = %v, want 0.75", got)
	}
}

// TestCorpusLoads asserts the corrupter always has frames: the wire
// fuzz corpus when testdata is reachable, the builtin set regardless.
func TestCorpusLoads(t *testing.T) {
	frames := loadCorpus()
	if len(frames) < len(builtinCorpus()) {
		t.Fatalf("corpus has %d frames, want at least the %d builtin ones", len(frames), len(builtinCorpus()))
	}
	if len(frames) == len(builtinCorpus()) {
		t.Log("wire fuzz corpus not found; running on the builtin frames only")
	}
}
