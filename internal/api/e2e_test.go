package api

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// The e2e tests run the HTTP front door over a real in-process cluster
// (in-memory transport, trained model) and check that answers served
// over HTTP are bit-identical to the engine's own.
var (
	e2eOnce  sync.Once
	e2eModel *core.Model
	e2eTest  *dataset.Dataset
)

func e2eFixture(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	e2eOnce.Do(func() {
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
		e2eModel, e2eTest = m, test
	})
	return e2eModel, e2eTest
}

func newE2EServer(t *testing.T, cfg Config) (*cluster.Engine, *httptest.Server) {
	t.Helper()
	model, test := e2eFixture(t)
	eng, err := cluster.NewEngine(model, test, cluster.EngineConfig{
		Gateway:        cluster.DefaultGatewayConfig(),
		MaxConcurrency: 8,
		CloudReplicas:  2, // a replicated upper tier, like production
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cfg.Engine = FromEngine(eng)
	cfg.Devices = model.Cfg.Devices
	if cfg.AdminAuth != nil {
		cfg.ModelAdmin = eng
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

// TestE2EClassifyMatchesEngine drives concurrent HTTP clients through a
// real cluster and checks every response against the engine's direct
// answer for the same sample: same class, same exit. Run under -race
// (CI does) it also proves the full HTTP→engine path is race-free.
func TestE2EClassifyMatchesEngine(t *testing.T) {
	eng, ts := newE2EServer(t, Config{})
	ctx := context.Background()

	const samples = 10
	want := make([]cluster.Result, samples)
	for id := 0; id < samples; id++ {
		res, err := eng.ClassifyTenantShed(ctx, uint64(id), "", cluster.ShedNone)
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
		go func() {
			defer wg.Done()
			for id := 0; id < samples; id++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/json",
					strings.NewReader(fmt.Sprintf(`{"sample_id": %d}`, id)))
				if err != nil {
					errs <- err
					return
				}
				var cr classifyResponse
				derr := json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if derr != nil {
					errs <- derr
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("sample %d: status %d", id, resp.StatusCode)
					return
				}
				if cr.Class != want[id].Class || cr.Exit != want[id].Exit.String() {
					errs <- fmt.Errorf("sample %d: got class %d exit %s, engine says class %d exit %v",
						id, cr.Class, cr.Exit, want[id].Class, want[id].Exit)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestE2EUploadMatchesDatasetSample posts a sample's device views as a
// raw tensor body and checks the answer equals classifying the same
// sample by ID — the upload path stages identical inputs.
func TestE2EUploadMatchesDatasetSample(t *testing.T) {
	eng, ts := newE2EServer(t, Config{})
	model, test := e2eFixture(t)
	ctx := context.Background()

	const id = 3
	want, err := eng.ClassifyTenantShed(ctx, id, "", cluster.ShedNone)
	if err != nil {
		t.Fatal(err)
	}

	views := test.AllDeviceBatches(model.Cfg.Devices, []int{id})
	viewVals := dataset.ImageC * dataset.ImageH * dataset.ImageW
	raw := make([]byte, 0, len(views)*viewVals*4)
	var buf [4]byte
	for _, v := range views {
		for _, f := range v.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
			raw = append(raw, buf[:]...)
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/octet-stream", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var cr classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Class != want.Class || cr.Exit != want.Exit.String() {
		t.Errorf("upload answered class %d exit %s, sample %d classifies as class %d exit %v",
			cr.Class, cr.Exit, id, want.Class, want.Exit)
	}
}

// TestE2EBatchMatchesEngine checks the batch endpoint against per-sample
// engine answers.
func TestE2EBatchMatchesEngine(t *testing.T) {
	eng, ts := newE2EServer(t, Config{})
	ctx := context.Background()

	ids := []uint64{0, 1, 2, 3, 4}
	want := make([]cluster.Result, len(ids))
	for i, id := range ids {
		res, err := eng.ClassifyTenantShed(ctx, id, "", cluster.ShedNone)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *res
	}

	body, _ := json.Marshal(map[string]any{"sample_ids": ids})
	resp, err := ts.Client().Post(ts.URL+"/v1/classify/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(ids) {
		t.Fatalf("batch answered %d results, want %d", len(br.Results), len(ids))
	}
	for i, cr := range br.Results {
		if cr.SampleID != ids[i] || cr.Class != want[i].Class || cr.Exit != want[i].Exit.String() {
			t.Errorf("batch[%d] = {id %d class %d exit %s}, engine says {id %d class %d exit %v}",
				i, cr.SampleID, cr.Class, cr.Exit, ids[i], want[i].Class, want[i].Exit)
		}
	}
}

// TestE2EShedLevelsStillAnswer forces each shed level through the engine
// and checks every level yields a valid classification — degraded, never
// failed.
func TestE2EShedLevelsStillAnswer(t *testing.T) {
	// MaxInFlight 1 puts every request in the top (device-only) band, so
	// exercise levels directly against the engine instead.
	eng, _ := newE2EServer(t, Config{})
	ctx := context.Background()
	for _, level := range []cluster.ShedLevel{cluster.ShedNone, cluster.ShedPreferEdge, cluster.ShedLocalOnly} {
		res, err := eng.ClassifyTenantShed(ctx, 0, "", level)
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		if res.Class < 0 {
			t.Errorf("level %v: class %d", level, res.Class)
		}
		if level == cluster.ShedLocalOnly && res.Exit != wire.ExitLocal {
			t.Errorf("device-only shed exited at %v", res.Exit)
		}
	}
}

// TestE2EClosedEngineAnswers503 closes the real engine behind the server
// and checks every classify route maps its ErrClosed to 503 through
// FromEngine — the typed-error table run against a real engine, not a
// fake.
func TestE2EClosedEngineAnswers503(t *testing.T) {
	eng, ts := newE2EServer(t, Config{})
	model, _ := e2eFixture(t)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	upload := strings.Repeat("\x00", model.Cfg.Devices*dataset.ImageC*dataset.ImageH*dataset.ImageW*4)
	for _, tc := range []struct{ path, contentType, body string }{
		{"/v1/classify", "application/json", `{"sample_id": 0}`},
		{"/v1/classify", "application/octet-stream", upload},
		{"/v1/classify/batch", "application/json", `{"sample_ids": [0, 1, 2]}`},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s on a closed engine: status %d, want 503", tc.path, tc.contentType, resp.StatusCode)
		}
	}
}
