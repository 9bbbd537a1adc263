// Quickstart: train a small DDNN on the synthetic multi-view dataset,
// run staged inference with a local exit threshold and report the
// accuracy measures and communication cost of §III-E/F, then serve the
// trained model through the concurrent Engine API.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A reduced dataset and epoch count keep the example fast; see
	// cmd/ddnn-bench for the full evaluation.
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Train, dcfg.Test = 300, 80
	train, test := ddnn.GenerateDataset(dcfg)
	fmt.Printf("dataset: %d train / %d test samples, %d devices\n",
		train.Len(), test.Len(), train.Devices())

	model := ddnn.MustNewModel(ddnn.DefaultConfig())
	fmt.Printf("model: %d parameters, %d B per device section (< 2 KB)\n",
		model.ParamCount(), model.DeviceMemoryBytes())

	tc := ddnn.DefaultTrainConfig()
	tc.Epochs = 20
	tc.Progress = func(epoch int, loss float64) {
		if (epoch+1)%5 == 0 {
			fmt.Printf("  epoch %3d: joint loss %.4f\n", epoch+1, loss)
		}
	}
	fmt.Println("jointly training device + cloud sections (equal exit weights)...")
	if _, err := model.Train(train, tc); err != nil {
		return err
	}

	res := model.Evaluate(test, nil, 32)
	fmt.Printf("\nlocal exit accuracy (100%% exit there): %.1f%%\n", res.LocalAccuracy()*100)
	fmt.Printf("cloud exit accuracy (100%% exit there): %.1f%%\n", res.CloudAccuracy()*100)

	policy := ddnn.NewPolicy(0.8, 1) // the paper's T=0.8 sweet spot
	l := res.LocalExitFraction(policy)
	fmt.Printf("\nstaged inference at T=0.8:\n")
	fmt.Printf("  overall accuracy:  %.1f%%\n", res.OverallAccuracy(policy)*100)
	fmt.Printf("  local exits:       %.1f%% of samples\n", l*100)
	fmt.Printf("  comm cost (Eq. 1): %.1f B/sample/device (raw offload: %d B)\n",
		model.Cfg.CommCostBytes(l), model.Cfg.RawOffloadBytes())

	// Serve the trained model: the Engine runs the full cluster (devices,
	// gateway, cloud) in-process and classifies sessions concurrently.
	eng, err := ddnn.NewEngine(model, test, ddnn.EngineConfig{
		Gateway:        ddnn.DefaultGatewayConfig(), // local exit threshold T = 0.8
		MaxConcurrency: 8,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	ids := make([]uint64, test.Len())
	for i := range ids {
		ids[i] = uint64(i)
	}
	start := time.Now()
	results, err := eng.ClassifyBatchTenantShed(context.Background(), ids, "", ddnn.ShedNone)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	localExits := 0
	for _, r := range results {
		if r.Exit == ddnn.ExitLocal {
			localExits++
		}
	}
	fmt.Printf("\nlive serving through the Engine (8 concurrent sessions):\n")
	fmt.Printf("  %d samples in %v (%.1f samples/s), %.1f%% exited locally\n",
		len(ids), elapsed.Round(time.Millisecond),
		float64(len(ids))/elapsed.Seconds(), 100*float64(localExits)/float64(len(ids)))
	return nil
}
