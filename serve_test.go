package ddnn_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
)

// The serving tests share one small trained model; they exercise the
// Engine's concurrency and error semantics, not model quality.
var (
	serveOnce  sync.Once
	serveModel *ddnn.Model
	serveTest  *ddnn.Dataset
)

func serveFixture(t *testing.T) (*ddnn.Model, *ddnn.Dataset) {
	t.Helper()
	serveOnce.Do(func() {
		dcfg := ddnn.DefaultDatasetConfig()
		dcfg.Train, dcfg.Test = 120, 40
		train, test := ddnn.GenerateDataset(dcfg)
		cfg := ddnn.DefaultConfig()
		cfg.CloudFilters = 8
		m := ddnn.MustNewModel(cfg)
		tc := ddnn.DefaultTrainConfig()
		tc.Epochs = 3
		if _, err := m.Train(train, tc); err != nil {
			panic(err)
		}
		serveModel, serveTest = m, test
	})
	return serveModel, serveTest
}

// serveConfig is the default engine config with MaxConcurrency set; the
// gateway starts from its defaults (a zero GatewayConfig is T = 0).
func serveConfig(maxConcurrency int) ddnn.EngineConfig {
	return ddnn.EngineConfig{Gateway: ddnn.DefaultGatewayConfig(), MaxConcurrency: maxConcurrency}
}

func newServeEngine(t *testing.T, cfg ddnn.EngineConfig) *ddnn.Engine {
	t.Helper()
	model, test := serveFixture(t)
	eng, err := ddnn.NewEngine(model, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestEngineConcurrentSessions drives well over eight concurrent Classify
// sessions through the in-memory transport. Run under -race (CI does) it
// proves the whole serving path — wire mux, gateway, device and cloud
// nodes, shared model — is data-race free, and it checks every session's
// decision against the single-flight result.
func TestEngineConcurrentSessions(t *testing.T) {
	eng := newServeEngine(t, serveConfig(8))
	ctx := context.Background()

	const samples = 10
	want := make([]ddnn.Result, samples)
	for id := 0; id < samples; id++ {
		res, err := eng.ClassifyTenantShed(ctx, uint64(id), "", ddnn.ShedNone)
		if err != nil {
			t.Fatalf("baseline sample %d: %v", id, err)
		}
		want[id] = *res
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*samples)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := 0; id < samples; id++ {
				res, err := eng.ClassifyTenantShed(ctx, uint64(id), "", ddnn.ShedNone)
				if err != nil {
					errs <- fmt.Errorf("worker %d sample %d: %w", w, id, err)
					return
				}
				if res.Class != want[id].Class || res.Exit != want[id].Exit {
					errs <- fmt.Errorf("worker %d sample %d: class/exit %d/%v, want %d/%v",
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

func TestEngineClassifyBatchOrdersResults(t *testing.T) {
	eng := newServeEngine(t, serveConfig(4))
	ids := []uint64{5, 0, 9, 3, 7, 1, 8, 2}
	results, err := eng.ClassifyBatchTenantShed(context.Background(), ids, "", ddnn.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results for %d ids", len(results), len(ids))
	}
	for i, res := range results {
		if res.SampleID != ids[i] {
			t.Errorf("result %d is for sample %d, want %d", i, res.SampleID, ids[i])
		}
	}
}

func TestEngineCancellationSurfacesTypedError(t *testing.T) {
	eng := newServeEngine(t, serveConfig(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.ClassifyTenantShed(ctx, 0, "", ddnn.ShedNone)
	if !errors.Is(err, ddnn.ErrCanceled) {
		t.Errorf("err = %v, want ddnn.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v must also wrap ctx.Err() (context.Canceled)", err)
	}
}

func TestEngineDeadlineSurfacesTypedError(t *testing.T) {
	eng := newServeEngine(t, serveConfig(0))
	// Crash every device so the session can only end via the deadline.
	model, _ := serveFixture(t)
	for d := 0; d < model.Cfg.Devices; d++ {
		eng.Devices()[d].SetFailed(true)
	}
	t.Cleanup(func() {
		for d := 0; d < model.Cfg.Devices; d++ {
			eng.Devices()[d].SetFailed(false)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := eng.ClassifyTenantShed(ctx, 0, "", ddnn.ShedNone)
	if !errors.Is(err, ddnn.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ddnn.ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v must also wrap ctx.Err() (context.DeadlineExceeded)", err)
	}
}

func TestEngineClosedError(t *testing.T) {
	model, test := serveFixture(t)
	eng, err := ddnn.NewEngine(model, test, serveConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.ClassifyTenantShed(context.Background(), 0, "", ddnn.ShedNone); !errors.Is(err, ddnn.ErrEngineClosed) {
		t.Errorf("err = %v, want ddnn.ErrEngineClosed", err)
	}
}

func TestEngineFaultToleranceUnderConcurrency(t *testing.T) {
	cfg := serveConfig(8)
	cfg.Gateway.DeviceTimeout = 200 * time.Millisecond
	eng := newServeEngine(t, cfg)
	eng.Devices()[2].SetFailed(true)
	ids := make([]uint64, 8)
	for i := range ids {
		ids[i] = uint64(i)
	}
	results, err := eng.ClassifyBatchTenantShed(context.Background(), ids, "", ddnn.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Present[2] {
			t.Errorf("result %d: dead device marked present", i)
		}
	}
}

// TestEngineBatchingMatchesPerSample checks EngineConfig.Batch:
// micro-batched serving must produce exactly the per-sample results, in
// order, and report wire traffic in both directions.
func TestEngineBatchingMatchesPerSample(t *testing.T) {
	model, test := serveFixture(t)
	plain, err := ddnn.NewEngine(model, test, serveConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cfg := serveConfig(4)
	cfg.Batch = ddnn.BatchConfig{MaxBatch: 8, MaxLinger: 2 * time.Millisecond}
	batched, err := ddnn.NewEngine(model, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	ids := make([]uint64, test.Len())
	for i := range ids {
		ids[i] = uint64(i)
	}
	want, err := plain.ClassifyBatchTenantShed(context.Background(), ids, "", ddnn.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batched.ClassifyBatchTenantShed(context.Background(), ids, "", ddnn.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].SampleID != want[i].SampleID || got[i].Class != want[i].Class || got[i].Exit != want[i].Exit {
			t.Errorf("sample %d: batched (id %d class %d exit %v) != per-sample (id %d class %d exit %v)",
				i, got[i].SampleID, got[i].Class, got[i].Exit, want[i].SampleID, want[i].Class, want[i].Exit)
		}
	}
	if up, down := batched.Gateway().WireBytes(); up <= 0 || down <= 0 {
		t.Errorf("wire traffic not measured: up %d down %d", up, down)
	}
}
