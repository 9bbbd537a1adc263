package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/modelio"
	"github.com/ddnn/ddnn-go/internal/transport"
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

// nanModel is a seed variant of base whose cloud exit's batch-norm
// gamma holds a NaN, so every cloud exit probability it produces is NaN:
// bad weights the rollout canary must refuse.
func nanModel(t *testing.T, base *core.Model, seed int64) *core.Model {
	t.Helper()
	m := variantModel(t, base, seed)
	for _, nt := range m.StateDict() {
		if nt.Name == "cloud.exitbn.gamma" {
			nt.T.Data()[0] = float32(math.NaN())
			m.Freeze()
			return m
		}
	}
	t.Fatal("model has no cloud.exitbn.gamma")
	return nil
}

// TestRolloutCanaryFailureRollsBack rolls a three-tier fleet out to a
// registered version with NaN weights under concurrent traffic: the
// canary must refuse it with ErrRolloutFailed, the active version must
// stay 1, and no answer — during or after — may be pinned to the bad
// version.
func TestRolloutCanaryFailureRollsBack(t *testing.T) {
	model, test := edgeFixture(t)
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
	if err := eng.RegisterModel(2, nanModel(t, model, 515151)); err != nil {
		t.Fatal(err)
	}

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
					t.Errorf("sample %d: pinned version %d, want 1 (the rollout was refused)", id, res.ModelVersion)
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
	time.Sleep(20 * time.Millisecond) // traffic after the refusal
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("traffic during refused rollout: %v", err)
	}

	if got := eng.ModelVersion(); got != 1 {
		t.Fatalf("active version after refused rollout = %d, want 1", got)
	}
	if got := eng.RolloutState(); got != RolloutRolledBack {
		t.Fatalf("rollout state = %q, want %q", got, RolloutRolledBack)
	}
	// The fleet still answers with version-1 staged parity.
	res, err := eng.ClassifyTenantShed(ctx, 3, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Argmax(ref1.CloudProbs[3]); res.Class != want || res.ModelVersion != 1 {
		t.Fatalf("after refusal: class %d version %d, want %d version 1", res.Class, res.ModelVersion, want)
	}
}

// TestRolloutSurvivesReplicaRestart hard-restarts cloud replicas while
// rollouts run back to back across three versions: every rollout
// succeeds, every restarted replica shares the engine's registry, and
// afterwards every cloud-bound answer is pinned to the active version
// and equals that version's staged reference.
func TestRolloutSurvivesReplicaRestart(t *testing.T) {
	model, test := fixture(t)
	models := map[uint64]*core.Model{1: model, 2: variantModel(t, model, 717171), 3: variantModel(t, model, 727272)}

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
	for _, v := range []uint64{2, 3} {
		if err := eng.RegisterModel(v, models[v]); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var stop atomic.Bool
	restarted := make(chan int)
	go func() {
		n := 0
		for ; !stop.Load(); n++ {
			if err := eng.RestartCloud(n % 2); err != nil {
				t.Errorf("restart cloud %d: %v", n%2, err)
				break
			}
			time.Sleep(time.Millisecond)
		}
		restarted <- n
	}()
	var rollErr error
	var want uint64
	for i := 0; i < 30 && rollErr == nil; i++ {
		want = []uint64{2, 3, 1}[i%3]
		if rollErr = eng.RolloutModel(ctx, want); rollErr != nil {
			rollErr = fmt.Errorf("rollout %d to version %d: %w", i, want, rollErr)
		}
	}
	stop.Store(true)
	n := <-restarted
	if rollErr != nil {
		t.Fatalf("across replica restarts: %v", rollErr)
	}
	if n == 0 {
		t.Fatal("no replica restarted while the rollouts ran")
	}
	t.Logf("%d replica restarts while 30 rollouts ran", n)

	active := eng.ModelVersion()
	if active != want {
		t.Fatalf("active version = %d, want %d", active, want)
	}
	for i, c := range eng.Clouds() {
		if c.reg != eng.reg {
			t.Errorf("cloud %d holds its own registry after restarts", i)
		}
	}
	waitHealthy(t, eng.Gateway(), 2, 5*time.Second)
	ref := models[active].Evaluate(test, nil, 32)
	for id := 0; id < 8; id++ {
		res, err := eng.ClassifyTenantShed(ctx, uint64(id), "", ShedNone)
		if err != nil {
			t.Fatal(err)
		}
		if want := core.Argmax(ref.CloudProbs[id]); res.ModelVersion != active || res.Class != want {
			t.Fatalf("sample %d: version %d class %d, want version %d class %d", id, res.ModelVersion, res.Class, active, want)
		}
	}
}

// TestRolloutOneRegistryPerEngine: the engine, its gateway and every
// device, edge and cloud node hold the same *modelRegistry, and so do
// the nodes RestartCloud and RestartEdge start.
func TestRolloutOneRegistryPerEngine(t *testing.T) {
	model, test := edgeFixture(t)
	eng := startEngine(t, model, test, EngineConfig{
		Gateway:       DefaultGatewayConfig(),
		EdgeReplicas:  2,
		CloudReplicas: 2,
	})
	check := func(when string) {
		t.Helper()
		if eng.gw.reg != eng.reg {
			t.Errorf("%s: the gateway holds its own registry", when)
		}
		nodes := eng.fleet()
		if want := model.Cfg.Devices + 2 + 2; len(nodes) != want {
			t.Fatalf("%s: %d in-process nodes, want %d", when, len(nodes), want)
		}
		for _, n := range nodes {
			if n.reg != eng.reg {
				t.Errorf("%s: %s holds its own registry", when, n.name)
			}
		}
	}
	check("after NewEngine")
	oldCloud, oldEdge := eng.Clouds()[0], eng.Edges()[1]
	if err := eng.RestartCloud(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.RestartEdge(1); err != nil {
		t.Fatal(err)
	}
	if eng.Clouds()[0] == oldCloud || eng.Edges()[1] == oldEdge {
		t.Fatal("a restart kept the old node")
	}
	check("after RestartCloud and RestartEdge")
}

// TestRolloutPinnedVersionMissingOnAttachedNodes attaches engines over
// transport.Mem to standalone nodes whose registries hold other model
// versions, as ddnn-node processes loading differently stamped files
// would. Devices without the session's pinned version fail it typed at
// capture; devices that hold it in front of a cloud that lacks it fail it
// typed from the upstream relay. Neither degrades to a silent answer.
// An attached engine cannot roll out at all.
func TestRolloutPinnedVersionMissingOnAttachedNodes(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	start := func(prefix string, deviceVersion, cloudVersion uint64) (devices, clouds []string) {
		for d := 0; d < model.Cfg.Devices; d++ {
			dev := NewDevice(model, deviceVersion, d, DatasetFeed(test, d), quietLogger())
			addr := fmt.Sprintf("%s-device-%d", prefix, d)
			if err := dev.Serve(tr, addr); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dev.Close() })
			devices = append(devices, addr)
		}
		cloud := NewCloud(model, cloudVersion, quietLogger())
		if err := cloud.Serve(tr, prefix+"-cloud"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cloud.Close() })
		return devices, []string{prefix + "-cloud"}
	}
	attach := func(devices, clouds []string, version uint64) *Engine {
		gcfg := DefaultGatewayConfig()
		gcfg.Threshold = -1 // every sample escalates to the cloud
		eng, err := AttachEngine(context.Background(), model, EngineConfig{Gateway: gcfg, ModelVersion: version, Logger: quietLogger()}, tr, devices, clouds)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	ctx := context.Background()

	// Sessions pin version 1; the devices hold only version 2.
	devices, clouds := start("capture", 2, 1)
	eng := attach(devices, clouds, 1)
	_, err := eng.ClassifyTenantShed(ctx, 0, "", ShedNone)
	if !errors.Is(err, ErrModelVersionUnknown) || !strings.Contains(err.Error(), "device") {
		t.Errorf("devices without the pinned version: %v, want ErrModelVersionUnknown from a device", err)
	}

	// Sessions pin version 2, which the devices hold and the cloud lacks.
	devices, clouds = start("relay", 2, 1)
	eng = attach(devices, clouds, 2)
	_, err = eng.ClassifyTenantShed(ctx, 0, "", ShedNone)
	if !errors.Is(err, ErrModelVersionUnknown) || !strings.Contains(err.Error(), "cloud tier") {
		t.Errorf("cloud without the pinned version: %v, want ErrModelVersionUnknown from the cloud tier", err)
	}

	// Matching stamps serve, pinned to the shared version.
	devices, clouds = start("match", 2, 2)
	eng = attach(devices, clouds, 2)
	res, err := eng.ClassifyTenantShed(ctx, 0, "", ShedNone)
	if err != nil || res.ModelVersion != 2 {
		t.Fatalf("matching stamps: %v, %+v; want an answer pinned to version 2", err, res)
	}
	if err := eng.RegisterModel(3, variantModel(t, model, 737373)); !errors.Is(err, ErrRolloutUnsupported) {
		t.Errorf("register on an attached engine: %v, want ErrRolloutUnsupported", err)
	}
	if err := eng.RolloutModel(ctx, 3); !errors.Is(err, ErrRolloutUnsupported) {
		t.Errorf("rollout on an attached engine: %v, want ErrRolloutUnsupported", err)
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

	// A rollout while another holds the rollout lock fails fast with
	// ErrRolloutInProgress and changes nothing.
	eng.rolloutMu.Lock()
	err = eng.RolloutModel(ctx, 7)
	eng.rolloutMu.Unlock()
	if !errors.Is(err, ErrRolloutInProgress) {
		t.Errorf("concurrent rollout: %v, want ErrRolloutInProgress", err)
	}
	if got := eng.ModelVersion(); got != 1 {
		t.Fatalf("active version after a refused concurrent rollout = %d, want 1", got)
	}
	if err := eng.RolloutModel(ctx, 7); err != nil {
		t.Fatalf("rollout: %v", err)
	}
	if got := eng.ModelVersion(); got != 7 {
		t.Fatalf("active version = %d, want 7", got)
	}
}

// TestRolloutRegistryEvictsOldestInactive: registering past
// maxRegistryVersions drops the oldest version that is neither active
// nor the one being registered, so the registry stays bounded and the
// active version survives.
func TestRolloutRegistryEvictsOldestInactive(t *testing.T) {
	model, _ := fixture(t)
	r := newModelRegistry(model, 1)
	for v := uint64(2); v <= maxRegistryVersions+2; v++ {
		if err := r.register(v, variantModel(t, model, int64(v))); err != nil {
			t.Fatal(err)
		}
	}
	got := r.versions()
	want := []uint64{1, 4, 5, 6, 7, 8, 9, 10}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("versions after %d registrations = %v, want %v", maxRegistryVersions+1, got, want)
	}
	if _, _, err := r.resolve(2); !errors.Is(err, ErrModelVersionUnknown) {
		t.Errorf("evicted version 2 still resolves: %v", err)
	}
}
