// Command ddnn-train jointly trains a DDNN on the synthetic multi-view
// multi-camera dataset and saves the model to a file, ready to be deployed
// with ddnn-node (one process per device, edge and cloud node) and
// driven by ddnn-sim or ddnn-serve.
//
// Usage:
//
//	ddnn-train -out model.ddnn [-epochs 100] [-filters 4] [-cloud-filters 16]
//	           [-local MP] [-cloud-agg CC] [-edge] [-seed 1] [-data-seed 1]
//	           [-model-version 1]
//
// The model is written atomically (temp file, fsync, rename), so a
// crash mid-save never leaves a truncated artifact where a serving
// fleet's reload could pick it up. -model-version stamps the artifact
// with the version number the serving admin plane registers it under
// (see docs/OPERATIONS.md on rolling reloads).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/agg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddnn-train", flag.ContinueOnError)
	var (
		out          = fs.String("out", "model.ddnn", "output model file")
		epochs       = fs.Int("epochs", 100, "training epochs (paper: 100)")
		batch        = fs.Int("batch", 32, "batch size")
		filters      = fs.Int("filters", 4, "device ConvP filters f")
		cloudFilters = fs.Int("cloud-filters", 16, "cloud ConvP filters")
		localAgg     = fs.String("local", "MP", "local aggregation scheme: MP, AP or CC")
		cloudAgg     = fs.String("cloud-agg", "CC", "cloud aggregation scheme: MP, AP or CC")
		useEdge      = fs.Bool("edge", false, "insert an edge tier (adds an edge exit)")
		seed         = fs.Int64("seed", 1, "weight initialization seed")
		dataSeed     = fs.Int64("data-seed", 1, "dataset generation seed")
		modelVersion = fs.Uint64("model-version", 1, "model version stamped into the artifact (for rolling reloads)")
		quiet        = fs.Bool("q", false, "suppress per-epoch progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	la, err := agg.ParseScheme(*localAgg)
	if err != nil {
		return err
	}
	ca, err := agg.ParseScheme(*cloudAgg)
	if err != nil {
		return err
	}

	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Seed = *dataSeed
	train, test := ddnn.GenerateDataset(dcfg)

	cfg := ddnn.DefaultConfig()
	cfg.DeviceFilters = *filters
	cfg.CloudFilters = *cloudFilters
	cfg.LocalAgg, cfg.CloudAgg = la, ca
	cfg.UseEdge = *useEdge
	cfg.Seed = *seed
	model, err := ddnn.NewModel(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("model: %d params, %d B per device; training %d epochs on %d samples\n",
		model.ParamCount(), model.DeviceMemoryBytes(), *epochs, train.Len())

	tc := ddnn.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.BatchSize = *batch
	if !*quiet {
		tc.Progress = func(epoch int, loss float64) {
			fmt.Printf("epoch %3d/%d: loss %.4f\n", epoch+1, *epochs, loss)
		}
	}
	start := time.Now()
	if _, err := model.Train(train, tc); err != nil {
		return err
	}
	fmt.Printf("trained in %v\n", time.Since(start).Round(time.Second))

	res := model.Evaluate(test, nil, *batch)
	pol := ddnn.NewPolicy(0.8, 1)
	fmt.Printf("test: local %.1f%%  cloud %.1f%%  overall@0.8 %.1f%% (%.1f%% local exits)\n",
		res.LocalAccuracy()*100, res.CloudAccuracy()*100,
		res.OverallAccuracy(pol)*100, res.LocalExitFraction(pol)*100)

	if *modelVersion == 0 {
		return fmt.Errorf("-model-version must be nonzero")
	}
	if err := ddnn.SaveModelVersion(*out, model, *modelVersion); err != nil {
		return err
	}
	fmt.Printf("saved %s (version %d)\n", *out, *modelVersion)
	return nil
}
