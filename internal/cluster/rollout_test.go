package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/modelio"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// variantModel builds a second model with the same architecture as base
// but different (seed-variant) weights — a stand-in for a retrained
// checkpoint.
func variantModel(t *testing.T, base *core.Model, seed int64) *core.Model {
	t.Helper()
	cfg := base.Cfg
	cfg.Seed = seed
	return core.MustNewModel(cfg)
}

// TestRolloutRollsFleetUnderTraffic is the zero-downtime contract (run
// with -race in CI): concurrent cloud-bound traffic flows across a
// rolling reload from version 1 to version 2, every result is pinned to
// exactly one of the two versions, and every verdict is bit-identical to
// that version's staged single-process reference. After the rollout the
// fleet serves version 2.
func TestRolloutRollsFleetUnderTraffic(t *testing.T) {
	model, test := fixture(t)
	m2 := variantModel(t, model, 424242)
	ref1 := model.Evaluate(test, nil, 32)
	ref2 := m2.Evaluate(test, nil, 32)

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1 // force every sample through the cloud pool
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 4,
		CloudReplicas:  2,
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RegisterModel(2, m2); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; !stop.Load(); id = (id + 4) % test.Len() {
				res, err := eng.ClassifyTenantShed(ctx, uint64(id), "", ShedNone)
				if err != nil {
					errs <- err
					return
				}
				var want int
				switch res.ModelVersion {
				case 1:
					want = core.Argmax(ref1.CloudProbs[id])
				case 2:
					want = core.Argmax(ref2.CloudProbs[id])
				default:
					errs <- errors.New("result pinned to unknown model version")
					return
				}
				if res.Class != want {
					t.Errorf("sample %d version %d: class %d, want %d", id, res.ModelVersion, res.Class, want)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond) // let traffic start
	if err := eng.RolloutModel(ctx, 2); err != nil {
		t.Fatalf("rollout: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // post-rollout traffic on v2
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("traffic during rollout: %v", err)
	}

	if got := eng.ModelVersion(); got != 2 {
		t.Fatalf("active version after rollout = %d, want 2", got)
	}
	if got := eng.RolloutState(); got != RolloutIdle {
		t.Fatalf("rollout state = %q, want %q", got, RolloutIdle)
	}
	res, err := eng.ClassifyTenantShed(ctx, 0, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != 2 {
		t.Fatalf("post-rollout session pinned version %d, want 2", res.ModelVersion)
	}
}

// TestRolloutCanaryFailureRollsBack plants a corrupt weight copy on one
// cloud replica via the tamper hook: the canary must catch it, the whole
// three-tier fleet must roll back to version 1, and traffic — flowing
// concurrently throughout — must never fail and never observe version 2.
func TestRolloutCanaryFailureRollsBack(t *testing.T) {
	model, test := edgeFixture(t)
	m2 := variantModel(t, model, 515151)
	bad := variantModel(t, model, 616161)
	ref1 := model.Evaluate(test, nil, 32)

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1 // force escalation through edge (and on to cloud)
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 4,
		EdgeReplicas:   2,
		CloudReplicas:  2,
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RegisterModel(2, m2); err != nil {
		t.Fatal(err)
	}
	eng.SetRolloutTamper(func(tier wire.ExitPoint, replica int) *core.Model {
		if tier == wire.ExitCloud && replica == 1 {
			return bad
		}
		return nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; !stop.Load(); id = (id + 2) % test.Len() {
				res, err := eng.ClassifyTenantShed(ctx, uint64(id), "", ShedNone)
				if err != nil {
					errs <- err
					return
				}
				if res.ModelVersion != 1 {
					t.Errorf("sample %d: pinned version %d, want 1 (rollout never completed)", id, res.ModelVersion)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	err = eng.RolloutModel(ctx, 2)
	if !errors.Is(err, ErrRolloutFailed) {
		t.Fatalf("rollout error = %v, want ErrRolloutFailed", err)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("traffic during failed rollout: %v", err)
	}

	if got := eng.ModelVersion(); got != 1 {
		t.Fatalf("active version after rollback = %d, want 1", got)
	}
	if got := eng.RolloutState(); got != RolloutRolledBack {
		t.Fatalf("rollout state = %q, want %q", got, RolloutRolledBack)
	}
	// Every node converged back to version 1, and the tampered replica's
	// copy of version 2 was repaired with the engine's good weights.
	for i, ed := range eng.Edges() {
		if ed.reg.activeVersion() != 1 {
			t.Errorf("edge %d active = %d, want 1", i, ed.reg.activeVersion())
		}
	}
	for i, c := range eng.Clouds() {
		if c.reg.activeVersion() != 1 {
			t.Errorf("cloud %d active = %d, want 1", i, c.reg.activeVersion())
		}
		if got := c.reg.model(2); got != m2 {
			t.Errorf("cloud %d holds unrepaired copy of version 2", i)
		}
	}
	// Rolled-back fleet still answers with version-1 staged parity.
	res, err := eng.ClassifyTenantShed(ctx, 3, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Argmax(ref1.CloudProbs[3]); res.Class != want || res.ModelVersion != 1 {
		t.Fatalf("post-rollback: class %d version %d, want %d version 1", res.Class, res.ModelVersion, want)
	}
}

// TestRolloutSurvivesReplicaRestart kills and restarts a cloud replica
// while the rollout is mid-flight (via the tamper hook as the sync
// point): the restarted replica adopts the fleet registry, the rollout
// completes, and the fleet converges on the new version.
func TestRolloutSurvivesReplicaRestart(t *testing.T) {
	model, test := fixture(t)
	m2 := variantModel(t, model, 717171)

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:       gcfg,
		CloudReplicas: 2,
		Logger:        quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RegisterModel(2, m2); err != nil {
		t.Fatal(err)
	}
	eng.SetRolloutTamper(func(tier wire.ExitPoint, replica int) *core.Model {
		if replica == 0 {
			// While replica 0 is being rolled, hard-restart replica 1: the
			// fresh node must adopt the fleet registry mid-rollout.
			if err := eng.RestartCloud(1); err != nil {
				t.Errorf("restart cloud 1: %v", err)
			}
		}
		return nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.RolloutModel(ctx, 2); err != nil {
		t.Fatalf("rollout across replica restart: %v", err)
	}
	if got := eng.ModelVersion(); got != 2 {
		t.Fatalf("active version = %d, want 2", got)
	}
	for i, c := range eng.Clouds() {
		if c.reg.activeVersion() != 2 {
			t.Errorf("cloud %d active = %d, want 2", i, c.reg.activeVersion())
		}
	}
	res, err := eng.ClassifyTenantShed(ctx, 0, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != 2 {
		t.Fatalf("post-rollout session pinned version %d, want 2", res.ModelVersion)
	}
}

// TestRolloutRegistryAndErrors covers the registration and version
// plumbing: typed duplicate/mismatch/unknown errors, artifact round-trip
// via RegisterModelBytes, no-op rollouts, and rollout serialization.
func TestRolloutRegistryAndErrors(t *testing.T) {
	model, test := fixture(t)
	m2 := variantModel(t, model, 818181)

	eng, err := NewEngine(model, test, EngineConfig{
		Gateway: DefaultGatewayConfig(),
		Logger:  quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	if err := eng.RolloutModel(ctx, 99); !errors.Is(err, ErrModelVersionUnknown) {
		t.Errorf("rollout to unknown version: %v, want ErrModelVersionUnknown", err)
	}
	if err := eng.RolloutModel(ctx, 0); !errors.Is(err, ErrModelVersionUnknown) {
		t.Errorf("rollout to version 0: %v, want ErrModelVersionUnknown", err)
	}
	if err := eng.RegisterModel(1, m2); !errors.Is(err, ErrDuplicateModelVersion) {
		t.Errorf("duplicate register: %v, want ErrDuplicateModelVersion", err)
	}
	mismatchCfg := model.Cfg
	mismatchCfg.DeviceFilters++
	if err := eng.RegisterModel(5, core.MustNewModel(mismatchCfg)); !errors.Is(err, ErrModelConfigMismatch) {
		t.Errorf("mismatched register: %v, want ErrModelConfigMismatch", err)
	}

	var buf bytes.Buffer
	if err := modelio.SaveVersion(&buf, m2, 7); err != nil {
		t.Fatal(err)
	}
	v, err := eng.RegisterModelBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("registered version = %d, want 7", v)
	}
	if got := eng.ModelVersions(); len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Fatalf("versions = %v, want [1 7]", got)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xFF // corrupt the last tensor's payload
	if _, err := eng.RegisterModelBytes(data); !errors.Is(err, modelio.ErrCorruptModel) {
		t.Errorf("corrupt artifact: %v, want modelio.ErrCorruptModel", err)
	}

	if err := eng.RolloutModel(ctx, 1); err != nil {
		t.Errorf("rollout to active version: %v, want nil no-op", err)
	}

	// A second rollout racing the first fails fast with
	// ErrRolloutInProgress; the tamper hook doubles as the sync point.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	eng.SetRolloutTamper(func(wire.ExitPoint, int) *core.Model {
		once.Do(func() { close(entered); <-release })
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- eng.RolloutModel(ctx, 7) }()
	<-entered
	if err := eng.RolloutModel(ctx, 7); !errors.Is(err, ErrRolloutInProgress) {
		t.Errorf("concurrent rollout: %v, want ErrRolloutInProgress", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first rollout: %v", err)
	}
	if got := eng.ModelVersion(); got != 7 {
		t.Fatalf("active version = %d, want 7", got)
	}
}
