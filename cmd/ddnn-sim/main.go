// Command ddnn-sim trains (or loads) a DDNN and serves the complete
// hierarchy in one process over in-memory links through the Engine API:
// device nodes, a gateway whose heartbeats ride its data links, the edge
// replicas for edge-tier models, and the cloud replicas, classifying
// many samples concurrently. It can inject device failures partway
// through to demonstrate detection, graceful degradation and recovery,
// and — with -replicas > 1 — crash an upper-tier replica mid-run to
// demonstrate health-aware failover.
//
// Usage:
//
//	ddnn-sim [-model model.ddnn] [-edge] [-epochs 25] [-threshold 0.8]
//	         [-edge-threshold 0.8] [-concurrency 8] [-replicas 1]
//	         [-fail 2,5] [-churn 1] [-fail-replica] [-fail-at 0.33]
//	         [-recover-at 0.66] [-samples 0]
//
// -fail crashes devices silently (the gateway discovers the loss through
// timeouts and missed heartbeat echoes); -churn instead deregisters them
// through the versioned topology (RemoveDevice) and re-admits them at
// -recover-at, so each change bumps the config version and takes effect
// on the next session without any detection lag.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/cliutil"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddnn-sim", flag.ContinueOnError)
	var (
		modelPath   = fs.String("model", "", "trained model file (empty: train now)")
		useEdge     = fs.Bool("edge", false, "train with an edge tier (three-stage local→edge→cloud escalation)")
		epochs      = fs.Int("epochs", 25, "training epochs when -model is empty")
		threshold   = fs.Float64("threshold", 0.8, "local exit entropy threshold T")
		edgeT       = fs.Float64("edge-threshold", 0.8, "edge exit entropy threshold (edge-tier models)")
		concurrency = fs.Int("concurrency", 8, "concurrent classification sessions")
		replicas    = fs.Int("replicas", 1, "replicas of each upper tier (cloud, and edge with -edge)")
		failReplica = fs.Bool("fail-replica", false, "also crash upper-tier replica 0 at -fail-at and recover it at -recover-at (needs -replicas > 1)")
		failList    = fs.String("fail", "", "comma-separated device indices to crash mid-run")
		churnList   = fs.String("churn", "", "comma-separated device indices to deregister (RemoveDevice) at -fail-at and re-admit at -recover-at — membership churn through the versioned topology, not silent failure")
		failAt      = fs.Float64("fail-at", 0.33, "fraction of the run at which devices crash")
		recoverAt   = fs.Float64("recover-at", 0.66, "fraction at which crashed devices recover (>1: never)")
		samples     = fs.Int("samples", 0, "number of test samples (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1, got %d", *concurrency)
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", *replicas)
	}
	if *failReplica && *replicas < 2 {
		return fmt.Errorf("-fail-replica needs -replicas of at least 2 so the survivors can take over")
	}

	// Parse the failure list before spending minutes on training; the
	// per-device range check follows once the model (and so the device
	// count) is known.
	failures, err := cliutil.ParseInts(*failList, 0)
	if err != nil {
		return fmt.Errorf("bad -fail: %w", err)
	}
	churned, err := cliutil.ParseInts(*churnList, 0)
	if err != nil {
		return fmt.Errorf("bad -churn: %w", err)
	}

	dcfg := ddnn.DefaultDatasetConfig()
	train, test := ddnn.GenerateDataset(dcfg)

	var model *ddnn.Model
	if *modelPath != "" {
		m, err := ddnn.LoadModel(*modelPath)
		if err != nil {
			return err
		}
		model = m
		fmt.Printf("loaded %s\n", *modelPath)
	} else {
		cfg := ddnn.DefaultConfig()
		cfg.UseEdge = *useEdge
		model = ddnn.MustNewModel(cfg)
		tc := ddnn.DefaultTrainConfig()
		tc.Epochs = *epochs
		fmt.Printf("training %d epochs...\n", *epochs)
		if _, err := model.Train(train, tc); err != nil {
			return err
		}
	}

	for _, d := range failures {
		if d >= model.Cfg.Devices {
			return fmt.Errorf("bad -fail entry %d: model has %d devices", d, model.Cfg.Devices)
		}
	}
	for _, d := range churned {
		if d >= model.Cfg.Devices {
			return fmt.Errorf("bad -churn entry %d: model has %d devices", d, model.Cfg.Devices)
		}
	}

	ctx := context.Background()
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	gcfg := ddnn.DefaultGatewayConfig()
	gcfg.Threshold, gcfg.EdgeThreshold = *threshold, *edgeT
	gcfg.DeviceTimeout = 500 * time.Millisecond
	gcfg.CloudTimeout = time.Second
	gcfg.EdgeTimeout = 2 * time.Second
	gcfg.MaxFailures = 0 // leave detection to the heartbeats
	gcfg.HeartbeatInterval = 50 * time.Millisecond
	eng, err := ddnn.NewEngine(model, test, ddnn.EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: *concurrency,
		EdgeReplicas:   *replicas,
		CloudReplicas:  *replicas,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	n := test.Len()
	if *samples > 0 && *samples < n {
		n = *samples
	}
	labels := test.Labels(nil)
	correct := 0
	exits := make(map[wire.ExitPoint]int)
	lat := metrics.NewLatencyRecorder()
	failPoint := int(*failAt * float64(n))
	recoverPoint := int(*recoverAt * float64(n))

	pool := eng.Gateway().Upstream()
	total, healthy := pool.Size(), pool.Healthy()
	fmt.Printf("classifying %d samples (T=%.2f, %d concurrent sessions, %d/%d upstream replicas healthy)...\n",
		n, *threshold, *concurrency, healthy, total)
	start := time.Now()
	// Classify in windows of `concurrency` samples so failure injection
	// lands between windows at a well-defined sample index.
	for base := 0; base < n; base += *concurrency {
		if len(failures) > 0 && base <= failPoint && failPoint < base+*concurrency {
			fmt.Printf("  [%d/%d] crashing devices %v\n", base, n, failures)
			for _, d := range failures {
				eng.Devices()[d].SetFailed(true)
			}
		}
		if len(churned) > 0 && base <= failPoint && failPoint < base+*concurrency {
			for _, d := range churned {
				v, err := eng.RemoveDevice(d)
				if err != nil {
					return fmt.Errorf("churn: remove device %d: %w", d, err)
				}
				fmt.Printf("  [%d/%d] device %d deregistered (topology version %d)\n", base, n, d, v)
			}
		}
		if *failReplica && base <= failPoint && failPoint < base+*concurrency {
			if model.Cfg.UseEdge {
				fmt.Printf("  [%d/%d] crashing edge replica 0 (of %d)\n", base, n, *replicas)
				eng.Edges()[0].SetFailed(true)
			} else {
				fmt.Printf("  [%d/%d] crashing cloud replica 0 (of %d)\n", base, n, *replicas)
				eng.Clouds()[0].SetFailed(true)
			}
		}
		if *failReplica && base <= recoverPoint && recoverPoint < base+*concurrency {
			fmt.Printf("  [%d/%d] recovering crashed replica 0\n", base, n)
			if model.Cfg.UseEdge {
				eng.Edges()[0].SetFailed(false)
			} else {
				eng.Clouds()[0].SetFailed(false)
			}
		}
		if len(churned) > 0 && base <= recoverPoint && recoverPoint < base+*concurrency {
			for _, d := range churned {
				v, err := eng.AdmitDevice(ctx, d)
				if err != nil {
					return fmt.Errorf("churn: re-admit device %d: %w", d, err)
				}
				fmt.Printf("  [%d/%d] device %d re-admitted (topology version %d)\n", base, n, d, v)
			}
		}
		if len(failures) > 0 && base <= recoverPoint && recoverPoint < base+*concurrency {
			fmt.Printf("  [%d/%d] recovering devices %v (down at this point: %v)\n",
				base, n, failures, eng.Gateway().DownDevices())
			for _, d := range failures {
				eng.Devices()[d].SetFailed(false)
			}
		}
		end := base + *concurrency
		if end > n {
			end = n
		}
		ids := make([]uint64, 0, end-base)
		for id := base; id < end; id++ {
			ids = append(ids, uint64(id))
		}
		results, err := eng.ClassifyBatchTenantShed(ctx, ids, "", ddnn.ShedNone)
		if err != nil {
			return fmt.Errorf("window at %d: %w", base, err)
		}
		for i, res := range results {
			if res.Class == labels[base+i] {
				correct++
			}
			exits[res.Exit]++
			lat.Record(res.Latency)
		}
	}
	elapsed := time.Since(start)

	l := float64(exits[wire.ExitLocal]) / float64(n)
	fmt.Printf("\nthroughput:         %.1f samples/s (%v total)\n", float64(n)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	fmt.Printf("accuracy:           %.1f%%\n", 100*float64(correct)/float64(n))
	fmt.Printf("local exits:        %.1f%%\n", l*100)
	if model.Cfg.UseEdge {
		fmt.Printf("edge exits:         %.1f%%\n", 100*float64(exits[wire.ExitEdge])/float64(n))
		fmt.Printf("cloud exits:        %.1f%%\n", 100*float64(exits[wire.ExitCloud])/float64(n))
	}
	fmt.Printf("latency mean/p95:   %v / %v\n", lat.Mean().Round(time.Microsecond), lat.Percentile(95).Round(time.Microsecond))
	perDev := float64(eng.Gateway().Meter.Total()) / float64(model.Cfg.Devices) / float64(n)
	fmt.Printf("payload per device: %.1f B/sample (Eq. 1: %.1f B, raw offload: %d B)\n",
		perDev, model.Cfg.CommCostBytes(l), model.Cfg.RawOffloadBytes())
	if down := eng.Gateway().DownDevices(); len(down) > 0 {
		fmt.Printf("still down:         %v\n", down)
	}
	return nil
}
