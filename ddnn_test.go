package ddnn_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
)

// TestPublicAPIEndToEnd walks the README quick-start path: generate data,
// train, evaluate, pick a threshold, save/load, and run the cluster.
func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short mode")
	}
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Train, dcfg.Test = 240, 60
	train, test := ddnn.GenerateDataset(dcfg)

	cfg := ddnn.DefaultConfig()
	cfg.CloudFilters = 8
	model := ddnn.MustNewModel(cfg)
	if model.DeviceMemoryBytes() >= 2048 {
		t.Errorf("device memory %d B, want < 2 KB", model.DeviceMemoryBytes())
	}

	tc := ddnn.DefaultTrainConfig()
	tc.Epochs = 12
	if _, err := model.Train(train, tc); err != nil {
		t.Fatal(err)
	}

	res := model.Evaluate(test, nil, 32)
	policy := ddnn.NewPolicy(0.8, 1)
	overall := res.OverallAccuracy(policy)
	if overall < 0.3 {
		t.Errorf("overall accuracy %.3f below chance", overall)
	}
	l := res.LocalExitFraction(policy)
	if c := model.Cfg.CommCostBytes(l); c < 12 || c > 140 {
		t.Errorf("comm cost %.1f B outside Eq. (1) envelope [12, 140]", c)
	}

	// Persistence round trip.
	path := filepath.Join(t.TempDir(), "m.ddnn")
	if err := ddnn.SaveModel(path, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := ddnn.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	res2 := loaded.Evaluate(test, nil, 32)
	if res2.LocalAccuracy() != res.LocalAccuracy() {
		t.Error("loaded model disagrees with original")
	}

	// Serving runtime through the facade.
	gcfg := ddnn.DefaultGatewayConfig()
	gcfg.DeviceTimeout = 2 * time.Second
	eng, err := ddnn.NewEngine(loaded, test, ddnn.EngineConfig{Gateway: gcfg, MaxConcurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r, err := eng.ClassifyTenantShed(context.Background(), 0, "", ddnn.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exit != ddnn.ExitLocal && r.Exit != ddnn.ExitCloud {
		t.Errorf("unexpected exit %v", r.Exit)
	}
	batch, err := eng.ClassifyBatchTenantShed(context.Background(), []uint64{1, 2, 3}, "", ddnn.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("got %d batch results, want 3", len(batch))
	}
}

func TestAggSchemeConstants(t *testing.T) {
	if ddnn.MP.String() != "MP" || ddnn.AP.String() != "AP" || ddnn.CC.String() != "CC" {
		t.Error("aggregation scheme constants miswired")
	}
}

func TestDefaultConfigIsPaperEvaluationArchitecture(t *testing.T) {
	cfg := ddnn.DefaultConfig()
	if cfg.Devices != 6 {
		t.Errorf("devices = %d, want 6", cfg.Devices)
	}
	if cfg.Classes != 3 {
		t.Errorf("classes = %d, want 3", cfg.Classes)
	}
	if cfg.DeviceFilters != 4 {
		t.Errorf("device filters = %d, want 4 (Fig. 7 setting)", cfg.DeviceFilters)
	}
	if cfg.LocalAgg != ddnn.MP || cfg.CloudAgg != ddnn.CC {
		t.Error("default aggregation must be MP-CC (Table I winner)")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
