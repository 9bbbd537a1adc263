package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// The fixture trains one small DDNN once and shares it across tests; the
// cluster tests exercise protocol behaviour, not model quality.
var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureTest  *dataset.Dataset
)

func fixture(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	fixtureOnce.Do(func() {
		dcfg := dataset.DefaultConfig()
		dcfg.Train, dcfg.Test = 120, 40
		train, test := dataset.MustGenerate(dcfg)
		cfg := core.DefaultConfig()
		cfg.CloudFilters = 8
		m := core.MustNewModel(cfg)
		tc := core.DefaultTrainConfig()
		tc.Epochs = 3
		if _, err := m.Train(train, tc); err != nil {
			panic(err)
		}
		fixtureModel, fixtureTest = m, test
	})
	return fixtureModel, fixtureTest
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discard{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// startEngine starts an in-process engine over the model (quiet logs,
// batching off unless cfg says otherwise) and closes it with the test.
func startEngine(t *testing.T, model *core.Model, test *dataset.Dataset, cfg EngineConfig) *Engine {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	eng, err := NewEngine(model, test, cfg, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// newTwoTier starts the two-tier fixture hierarchy; tests drive its
// gateway directly.
func newTwoTier(t *testing.T, cfg GatewayConfig) *Engine {
	t.Helper()
	model, test := fixture(t)
	return startEngine(t, model, test, EngineConfig{Gateway: cfg})
}

// classifyOne runs a one-sample session on the gateway's default
// pipeline.
func classifyOne(ctx context.Context, gw *Gateway, id uint64) (*Result, error) {
	results, err := gw.Classify(ctx, []uint64{id}, "", ShedNone)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

func TestClusterClassifiesSamples(t *testing.T) {
	eng := newTwoTier(t, DefaultGatewayConfig())
	_, test := fixture(t)
	for id := 0; id < 10; id++ {
		res, err := classifyOne(context.Background(), eng.Gateway(), uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		if res.Class < 0 || res.Class >= dataset.NumClasses {
			t.Errorf("sample %d class = %d, out of range", id, res.Class)
		}
		if res.Exit != wire.ExitLocal && res.Exit != wire.ExitCloud {
			t.Errorf("sample %d exit = %v", id, res.Exit)
		}
		if res.Latency <= 0 {
			t.Errorf("sample %d latency not recorded", id)
		}
		_ = test
	}
}

func TestClusterMatchesInProcessInference(t *testing.T) {
	// The distributed pipeline must produce the same decisions as running
	// the model in-process: same exit choice and same predicted class.
	gcfg := DefaultGatewayConfig()
	eng := newTwoTier(t, gcfg)
	model, test := fixture(t)

	for id := 0; id < 25; id++ {
		res, err := classifyOne(context.Background(), eng.Gateway(), uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}

		xs := test.AllDeviceBatches(model.Cfg.Devices, []int{id})
		logits := model.Infer(xs, nil)
		localProbs := nn.Softmax(logits.Local)
		probsRow := make([]float32, model.Cfg.Classes)
		copy(probsRow, localProbs.Row(0))
		wantLocal := nn.NormalizedEntropy(probsRow) <= gcfg.Threshold

		if wantLocal {
			if res.Exit != wire.ExitLocal {
				t.Errorf("sample %d exited at %v, in-process says local", id, res.Exit)
			}
			if want := localProbs.ArgMaxRow(0); res.Class != want {
				t.Errorf("sample %d local class = %d, in-process %d", id, res.Class, want)
			}
		} else {
			if res.Exit != wire.ExitCloud {
				t.Errorf("sample %d exited at %v, in-process says cloud", id, res.Exit)
			}
			if want := logits.Cloud.ArgMaxRow(0); res.Class != want {
				t.Errorf("sample %d cloud class = %d, in-process %d", id, res.Class, want)
			}
		}
	}
}

func TestThresholdZeroAlwaysGoesToCloud(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // even zero entropy cannot pass
	eng := newTwoTier(t, cfg)
	res, err := classifyOne(context.Background(), eng.Gateway(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != wire.ExitCloud {
		t.Errorf("exit = %v, want cloud with impossible threshold", res.Exit)
	}
}

func TestThresholdOneAlwaysExitsLocally(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = 1
	eng := newTwoTier(t, cfg)
	for id := 0; id < 5; id++ {
		res, err := classifyOne(context.Background(), eng.Gateway(), uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		if res.Exit != wire.ExitLocal {
			t.Errorf("sample %d exit = %v, want local with T=1", id, res.Exit)
		}
	}
}

func TestCommMeterTracksEquationOne(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // force cloud escalation: both Eq. (1) terms charged
	eng := newTwoTier(t, cfg)
	model, _ := fixture(t)

	if _, err := classifyOne(context.Background(), eng.Gateway(), 0); err != nil {
		t.Fatal(err)
	}
	devices := int64(model.Cfg.Devices)
	wantSummary := devices * int64(wire.SummaryPayloadBytes(model.Cfg.Classes))
	if got := eng.Gateway().Meter.Get("local-summary"); got != wantSummary {
		t.Errorf("local-summary bytes = %d, want %d (= n·4·|C|)", got, wantSummary)
	}
	featBytes := int64(model.Cfg.DeviceFilters*model.Cfg.FeatureSize()) / 8
	if got := eng.Gateway().Meter.Get("cloud-upload"); got != devices*featBytes {
		t.Errorf("cloud-upload bytes = %d, want %d (= n·f·o/8)", got, devices*featBytes)
	}
	if up, _ := eng.Gateway().WireBytes(); up <= wantSummary {
		t.Error("wire bytes must exceed payload bytes (framing overhead)")
	}
}

func TestLocalExitSendsNoFeatures(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = 1 // everything exits locally
	eng := newTwoTier(t, cfg)
	for id := 0; id < 5; id++ {
		if _, err := classifyOne(context.Background(), eng.Gateway(), uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Gateway().Meter.Get("cloud-upload"); got != 0 {
		t.Errorf("cloud-upload bytes = %d, want 0 when all samples exit locally", got)
	}
}

func TestFaultToleranceSingleDeviceFailure(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.DeviceTimeout = 200 * time.Millisecond
	eng := newTwoTier(t, cfg)

	eng.Devices()[2].SetFailed(true)
	res, err := classifyOne(context.Background(), eng.Gateway(), 3)
	if err != nil {
		t.Fatalf("classification failed with one dead device: %v", err)
	}
	if res.Present[2] {
		t.Error("failed device marked present")
	}
	okCount := 0
	for d, p := range res.Present {
		if p && d == 2 {
			t.Error("dead device contributed")
		}
		if p {
			okCount++
		}
	}
	if okCount == 0 {
		t.Error("no live devices contributed")
	}
}

// TestStickyFailureDetection: a silent device is marked down by the
// failure detector with no session issued, stays down while silent, and
// sessions skip it without waiting out DeviceTimeout.
func TestStickyFailureDetection(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.DeviceTimeout = 500 * time.Millisecond
	cfg.HeartbeatInterval = 25 * time.Millisecond
	eng := newTwoTier(t, cfg)
	gw := eng.Gateway()

	eng.Devices()[1].SetFailed(true)
	waitFor(3*time.Second, func() bool { return len(gw.DownDevices()) != 0 })
	if down := gw.DownDevices(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("DownDevices = %v, want [1]", down)
	}

	// A down device is skipped immediately: every session must be fast.
	for id := 0; id < 3; id++ {
		start := time.Now()
		res, err := classifyOne(context.Background(), gw, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > cfg.DeviceTimeout {
			t.Errorf("session with down device took %v, want < %v (no timeout wait)", elapsed, cfg.DeviceTimeout)
		}
		if res.Present[1] {
			t.Error("down device contributed")
		}
	}
	if down := gw.DownDevices(); len(down) != 1 || down[0] != 1 {
		t.Errorf("DownDevices = %v after the sessions, want [1]", down)
	}
}

func TestAllDevicesFailedReturnsError(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.DeviceTimeout = 100 * time.Millisecond
	eng := newTwoTier(t, cfg)
	for _, d := range eng.Devices() {
		d.SetFailed(true)
	}
	if _, err := classifyOne(context.Background(), eng.Gateway(), 0); err == nil {
		t.Error("classification succeeded with every device dead")
	}
}

func TestDeviceRecovery(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.DeviceTimeout = 100 * time.Millisecond
	eng := newTwoTier(t, cfg)

	eng.Devices()[0].SetFailed(true)
	res, err := classifyOne(context.Background(), eng.Gateway(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Present[0] {
		t.Error("failed device contributed")
	}

	eng.Devices()[0].SetFailed(false)
	res, err = classifyOne(context.Background(), eng.Gateway(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Present[0] {
		t.Error("recovered device still absent")
	}
}

func TestCloudFailureSurfacesError(t *testing.T) {
	// With the cloud down, confident samples still exit locally, and
	// cloud-bound samples fail with an error instead of hanging.
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // force every sample to the cloud
	cfg.CloudTimeout = 300 * time.Millisecond
	eng := newTwoTier(t, cfg)
	eng.Clouds()[0].Close()

	start := time.Now()
	_, err := classifyOne(context.Background(), eng.Gateway(), 0)
	if err == nil {
		t.Fatal("classification succeeded with the cloud down")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cloud-down classification took %v; must fail fast", elapsed)
	}

	// Confident samples are unaffected: they never touch the cloud.
	cfg2 := DefaultGatewayConfig()
	cfg2.Threshold = 1
	model, test := fixture(t)
	eng2 := startEngine(t, model, test, EngineConfig{Gateway: cfg2})
	eng2.Clouds()[0].Close()
	if _, err := classifyOne(context.Background(), eng2.Gateway(), 0); err != nil {
		t.Errorf("local-exit classification failed with cloud down: %v", err)
	}
}

func TestCloudRejectsWrongDeviceCount(t *testing.T) {
	model, _ := fixture(t)
	tr := transport.NewMem()
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "cloud-reject"); err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	conn, err := tr.Dial(context.Background(), "cloud-reject")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.Encode(conn, &wire.CloudClassifyBatch{Session: 1, Devices: 99, SampleIDs: []uint64{1}, Masks: []uint16{1}}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.Error); !ok {
		t.Errorf("cloud replied %v to bad device count, want Error", msg.MsgType())
	}
}

func TestDeviceMarksUnknownSampleAbsent(t *testing.T) {
	// A sample the feed cannot produce is an absent frame in the capture
	// reply, and a typed error when its features are requested.
	model, test := fixture(t)
	tr := transport.NewMem()
	dev := NewDevice(model, 0, DatasetFeed(test, 0), quietLogger())
	if err := dev.Serve(tr, "dev-unknown"); err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	conn, err := tr.Dial(context.Background(), "dev-unknown")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.Encode(conn, &wire.CaptureBatch{Session: 1, SampleIDs: []uint64{0, 1 << 40}}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(conn)
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := msg.(*wire.SummaryBatch)
	if !ok {
		t.Fatalf("device replied %v to a capture, want SummaryBatch", msg.MsgType())
	}
	if !wire.IsPresent(sum.Present, 0) || wire.IsPresent(sum.Present, 1) || len(sum.Probs) != model.Cfg.Classes {
		t.Errorf("present %08b with %d probs, want only sample 0 present", sum.Present, len(sum.Probs))
	}
	if _, err := wire.Encode(conn, &wire.FeatureBatchRequest{Session: 1, SampleIDs: []uint64{1 << 40}}); err != nil {
		t.Fatal(err)
	}
	if msg, err = wire.Decode(conn); err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*wire.Error); !ok || e.Code != 404 || e.Session != 1 {
		t.Errorf("device replied %v to an out-of-range feature request, want Error 404 on session 1", msg)
	}
}

func TestClusterOverTCP(t *testing.T) {
	model, test := fixture(t)
	tr := transport.TCP{}

	var devices []*Device
	addrs := make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, DatasetFeed(test, d), quietLogger())
		if err := dev.Serve(tr, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		devices = append(devices, dev)
		addrs[d] = dev.listener.Addr().String()
	}
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	gw, err := NewGateway(context.Background(), model, DefaultGatewayConfig(), tr, addrs, []string{cloud.listener.Addr().String()}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	for id := 0; id < 5; id++ {
		res, err := classifyOne(context.Background(), gw, uint64(id))
		if err != nil {
			t.Fatalf("TCP sample %d: %v", id, err)
		}
		if res.Class < 0 || res.Class >= dataset.NumClasses {
			t.Errorf("TCP sample %d class out of range", id)
		}
	}
	_ = devices
}

func TestGatewayConcurrentSessionsMatchSerial(t *testing.T) {
	// Many concurrent sessions must produce exactly the decisions the
	// serial gateway produced: same class, same exit, per sample.
	eng := newTwoTier(t, DefaultGatewayConfig())
	const samples = 12
	want := make([]*Result, samples)
	for id := 0; id < samples; id++ {
		res, err := classifyOne(context.Background(), eng.Gateway(), uint64(id))
		if err != nil {
			t.Fatalf("serial sample %d: %v", id, err)
		}
		want[id] = res
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*samples)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := 0; id < samples; id++ {
				res, err := classifyOne(context.Background(), eng.Gateway(), uint64(id))
				if err != nil {
					errs <- fmt.Errorf("worker %d sample %d: %w", w, id, err)
					return
				}
				if res.Class != want[id].Class || res.Exit != want[id].Exit {
					errs <- fmt.Errorf("worker %d sample %d: got class %d exit %v, want %d %v",
						w, id, res.Class, res.Exit, want[id].Class, want[id].Exit)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineBoundsConcurrencyAndClassifies(t *testing.T) {
	model, test := fixture(t)
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        DefaultGatewayConfig(),
		MaxConcurrency: 4,
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ids := make([]uint64, 16)
	for i := range ids {
		ids[i] = uint64(i % test.Len())
	}
	results, err := eng.ClassifyBatchTenantShed(context.Background(), ids, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d missing", i)
		}
		if res.SampleID != ids[i] {
			t.Errorf("result %d is for sample %d, want %d", i, res.SampleID, ids[i])
		}
	}
}

func TestEngineClassifyAfterCloseFails(t *testing.T) {
	model, test := fixture(t)
	eng, err := NewEngine(model, test, EngineConfig{Gateway: DefaultGatewayConfig(), Logger: quietLogger()}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.ClassifyTenantShed(context.Background(), 0, "", ShedNone); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestClassifyCanceledContext(t *testing.T) {
	eng := newTwoTier(t, DefaultGatewayConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := classifyOne(ctx, eng.Gateway(), 0)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v must also wrap context.Canceled", err)
	}
}

func TestClassifyContextDeadline(t *testing.T) {
	// A deadline shorter than any device round trip must surface as
	// ErrDeadlineExceeded even though DeviceTimeout is generous.
	cfg := DefaultGatewayConfig()
	eng := newTwoTier(t, cfg)
	eng.Devices()[0].SetFailed(true) // at least one silent device keeps the session waiting
	for _, d := range eng.Devices() {
		d.SetFailed(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := classifyOne(ctx, eng.Gateway(), 0)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestSimulatedLinksAddLatency(t *testing.T) {
	// With simulated link profiles, a cloud-exit sample must be slower
	// than a local-exit sample (vertical-scaling latency claim of §V).

	// Local-exit-only gateway.
	engLocal := newTwoTier(t, GatewayConfig{
		Threshold:     1,
		DeviceTimeout: 2 * time.Second,
		CloudTimeout:  5 * time.Second,
	})
	resLocal, err := classifyOne(context.Background(), engLocal.Gateway(), 0)
	if err != nil {
		t.Fatal(err)
	}

	engCloud := newTwoTier(t, GatewayConfig{
		Threshold:     -1,
		DeviceTimeout: 2 * time.Second,
		CloudTimeout:  5 * time.Second,
	})
	resCloud, err := classifyOne(context.Background(), engCloud.Gateway(), 0)
	if err != nil {
		t.Fatal(err)
	}

	if resCloud.Latency <= resLocal.Latency {
		t.Logf("note: cloud latency %v vs local %v (no simulated links, close is fine)", resCloud.Latency, resLocal.Latency)
	}
	if resLocal.Exit != wire.ExitLocal || resCloud.Exit != wire.ExitCloud {
		t.Errorf("exits = %v/%v, want local/cloud", resLocal.Exit, resCloud.Exit)
	}
}
