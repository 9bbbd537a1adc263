// Command ddnn-chaos runs the seeded chaos harness (internal/chaos)
// over a freshly trained in-process DDNN topology and prints the
// availability curve and invariant verdict. It is the replay surface
// for chaos findings: a failing CI run or test prints a seed, and
// `ddnn-chaos -seed N` reproduces that run's fault schedule.
//
// Usage:
//
//	ddnn-chaos [-seed 1] [-duration 3s] [-edge] [-replicas 2]
//	           [-workers 4] [-epochs 3] [-device-kills] [-replica-kills]
//	           [-link-faults] [-health-flaps] [-frame-corruption]
//	           [-device-churn] [-model-rollouts] [-soak 1m]
//
// -seed 0 draws a fresh random seed (printed for replay). The process
// exits 1 if the run observed any invariant violation.
//
// -soak runs a long window (overriding -duration) and emits the run as
// machine-readable JSON on stdout — the per-500ms availability buckets,
// fault census and verdict — for trend dashboards and soak pipelines;
// the human-readable curve moves to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/ddnn/ddnn-go/internal/chaos"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-chaos:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddnn-chaos", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "chaos schedule seed (0: draw a random one)")
		duration   = fs.Duration("duration", 3*time.Second, "fault window before heal/drain phases")
		useEdge    = fs.Bool("edge", true, "run the three-tier hierarchy (false: device→cloud)")
		replicas   = fs.Int("replicas", 2, "replicas per upper tier")
		workers    = fs.Int("workers", 4, "concurrent traffic drivers")
		inflight   = fs.Int("max-inflight", 8, "front-door admission bound")
		epochs     = fs.Int("epochs", 3, "training epochs for the throwaway model")
		dataSeed   = fs.Int64("data-seed", 1, "dataset seed")
		devKills   = fs.Bool("device-kills", true, "arm the device killer")
		repKills   = fs.Bool("replica-kills", true, "arm the replica killer/restarter")
		linkFaults = fs.Bool("link-faults", true, "arm link partitions and degradation")
		flaps      = fs.Bool("health-flaps", true, "arm device and replica liveness flaps across the heartbeat detection window")
		corruption = fs.Bool("frame-corruption", true, "arm wire-frame corruption")
		churn      = fs.Bool("device-churn", true, "arm membership churn (device leave/join cycles)")
		rollouts   = fs.Bool("model-rollouts", true, "arm the model lifecycle actor (registrations, rollouts, a NaN-weights rollout the canary must refuse)")
		soak       = fs.Duration("soak", 0, "soak mode: run this long (overrides -duration) and print the per-bucket availability report as JSON on stdout")
		verbose    = fs.Bool("v", false, "log cluster node output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))

	dcfg := dataset.DefaultConfig()
	dcfg.Train, dcfg.Test = 120, 40
	dcfg.Seed = *dataSeed
	train, test := dataset.MustGenerate(dcfg)
	mcfg := core.DefaultConfig()
	mcfg.UseEdge = *useEdge
	mcfg.CloudFilters = 8
	model := core.MustNewModel(mcfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	logger.Info("training throwaway model", "epochs", *epochs, "edge", *useEdge)
	if _, err := model.Train(train, tc); err != nil {
		return err
	}

	window := *duration
	if *soak > 0 {
		window = *soak
	}
	cfg := chaos.Config{
		Seed:            *seed,
		FaultWindow:     window,
		EdgeReplicas:    *replicas,
		CloudReplicas:   *replicas,
		Workers:         *workers,
		MaxInFlight:     *inflight,
		DeviceKills:     *devKills,
		ReplicaKills:    *repKills,
		LinkFaults:      *linkFaults,
		HealthFlaps:     *flaps,
		FrameCorruption: *corruption,
		DeviceChurn:     *churn,
		ModelRollout:    *rollouts,
	}
	if *verbose {
		cfg.Logger = logger
	}
	h, err := chaos.New(model, test, cfg)
	if err != nil {
		return err
	}
	logger.Info("chaos run starting", "seed", *seed, "window", window)
	rep := h.Run(context.Background())
	if *soak > 0 {
		// Soak mode keeps stdout machine-readable; the curve goes to
		// stderr for anyone watching.
		fmt.Fprint(os.Stderr, rep)
		out, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(rep)
	}
	if v := rep.Violations(); len(v) > 0 {
		return fmt.Errorf("%d invariant violations (seed %d)", len(v), *seed)
	}
	return nil
}
