// Multiview: demonstrates automatic sensor fusion (§III-B, §IV-E). Six
// cameras observe the same objects from different viewpoints with very
// different quality; individually none of them classifies well, but the
// jointly-trained DDNN fuses their features and beats the best camera by a
// wide margin at both the local and cloud exit points.
package main

import (
	"context"
	"fmt"
	"os"

	ddnn "github.com/ddnn/ddnn-go"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multiview:", err)
		os.Exit(1)
	}
}

func run() error {
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Train, dcfg.Test = 400, 100
	train, test := ddnn.GenerateDataset(dcfg)

	cfg := ddnn.DefaultConfig()
	tc := ddnn.DefaultTrainConfig()
	tc.Epochs = 12

	fmt.Println("training an individual model per camera (no fusion)...")
	best := 0.0
	for d := 0; d < cfg.Devices; d++ {
		im, err := ddnn.NewIndividualModel(cfg, d)
		if err != nil {
			return err
		}
		if _, err := im.Train(train, tc); err != nil {
			return err
		}
		acc := im.Accuracy(test, 32)
		if acc > best {
			best = acc
		}
		fmt.Printf("  camera %d alone: %5.1f%%\n", d+1, acc*100)
	}

	fmt.Println("\njointly training the fused DDNN over all six cameras...")
	tc.Epochs = 25
	model := ddnn.MustNewModel(cfg)
	if _, err := model.Train(train, tc); err != nil {
		return err
	}
	res := model.Evaluate(test, nil, 32)
	policy := ddnn.NewPolicy(0.8, 1)

	fmt.Printf("\n                     best single camera: %5.1f%%\n", best*100)
	fmt.Printf("  DDNN local exit (fused, on-gateway):  %5.1f%%\n", res.LocalAccuracy()*100)
	fmt.Printf("  DDNN cloud exit (fused, offloaded):   %5.1f%%\n", res.CloudAccuracy()*100)
	fmt.Printf("  DDNN overall (staged, T=0.8):         %5.1f%%\n", res.OverallAccuracy(policy)*100)

	// The same staged decisions, measured on the live serving Engine with
	// concurrent sessions instead of in-process evaluation.
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
	results, err := eng.ClassifyBatchTenantShed(context.Background(), ids, "", ddnn.ShedNone)
	if err != nil {
		return err
	}
	labels := test.Labels(nil)
	correct := 0
	for i, r := range results {
		if r.Class == labels[i] {
			correct++
		}
	}
	fmt.Printf("  DDNN served live (Engine, staged):    %5.1f%%\n", 100*float64(correct)/float64(len(ids)))

	fmt.Println("\nthe fusion gain comes from joint training: each camera's filters")
	fmt.Println("are tuned to its own viewpoint while optimizing one shared objective.")
	return nil
}
