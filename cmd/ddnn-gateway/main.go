// Command ddnn-gateway runs the local aggregator: it connects an Engine
// to the device nodes and the upstream tier over TCP — the edge replicas
// for edge-tier models, the cloud replicas otherwise — drives concurrent
// classification sessions over the test set, and reports accuracy, exit
// distribution, latency, throughput and measured communication.
//
// Usage:
//
//	ddnn-gateway -model model.ddnn -devices 127.0.0.1:7001,...,127.0.0.1:7006 \
//	             -cloud 127.0.0.1:7100 [-cloud 127.0.0.1:7101 ...]
//	             [-edge 127.0.0.1:7050 [-edge 127.0.0.1:7051 ...]]
//	             [-threshold 0.8] [-edge-threshold 0.8] [-concurrency 8]
//	             [-batch 1] [-samples 0] [-data-seed 1]
//	             [-register 127.0.0.1:7200] [-wait-devices 30s]
//
// With -register the gateway serves the device registration plane on
// that address: -devices may then name fewer devices than the model has
// slots (or leave entries empty), and the missing devices join at
// runtime via ddnn-device -register without a gateway restart.
// -wait-devices holds the classification batch until every slot fills
// or the window expires.
//
// With a model trained via ddnn-train -edge, pass -edge so the gateway
// escalates local-exit misses to the edge tier (which forwards hard
// samples to the cloud itself); otherwise the gateway dials -cloud.
// Both flags are repeatable (and accept comma-separated lists): every
// address names one replica of that tier, and the gateway load-balances
// escalations across the healthy replicas, failing over mid-session when
// one dies.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/cliutil"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddnn-gateway", flag.ContinueOnError)
	var cloudAddrs, edgeAddrs cliutil.AddrList
	fs.Var(&cloudAddrs, "cloud", "cloud replica address (repeatable; default 127.0.0.1:7100)")
	fs.Var(&edgeAddrs, "edge", "edge replica address (repeatable; required for edge-tier models)")
	var (
		modelPath   = fs.String("model", "model.ddnn", "trained model file")
		devices     = fs.String("devices", "", "comma-separated device addresses, in device order; fewer entries than the model has slots (or empty entries) leave those slots absent until a device registers")
		register    = fs.String("register", "", "serve the device registration plane on this address: devices join/leave at runtime via ddnn-device -register")
		waitDevices = fs.Duration("wait-devices", 0, "with -register, wait up to this long for every slot to fill before classifying")
		threshold   = fs.Float64("threshold", 0.8, "local exit entropy threshold T")
		edgeT       = fs.Float64("edge-threshold", 0.8, "edge exit entropy threshold (edge-tier models)")
		concurrency = fs.Int("concurrency", 8, "concurrent classification sessions")
		batch       = fs.Int("batch", 1, "micro-batch size: coalesce up to this many samples into one session per tier (1 = per-sample)")
		samples     = fs.Int("samples", 0, "number of test samples to classify (0 = all)")
		dataSeed    = fs.Int64("data-seed", 1, "dataset seed (must match the devices)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1, got %d", *concurrency)
	}

	model, err := ddnn.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	if len(cloudAddrs) == 0 {
		cloudAddrs = cliutil.AddrList{"127.0.0.1:7100"}
	}
	upstream := []string(cloudAddrs)
	if model.Cfg.UseEdge {
		if len(edgeAddrs) == 0 {
			return fmt.Errorf("model has an edge tier; pass -edge with the ddnn-edge address(es)")
		}
		upstream = edgeAddrs
	} else if len(edgeAddrs) > 0 {
		return fmt.Errorf("model has no edge tier; drop -edge or retrain with ddnn-train -edge")
	}
	var addrs []string
	if *devices != "" {
		addrs = strings.Split(*devices, ",")
	}
	if len(addrs) > model.Cfg.Devices {
		return fmt.Errorf("model has %d device slots, got %d addresses: %w", model.Cfg.Devices, len(addrs), ddnn.ErrDeviceSlotMismatch)
	}
	if len(addrs) < model.Cfg.Devices && *register == "" {
		return fmt.Errorf("model needs %d device addresses, got %d (pass -register to let the missing devices join at runtime)", model.Cfg.Devices, len(addrs))
	}
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Seed = *dataSeed
	_, test := ddnn.GenerateDataset(dcfg)

	// SIGINT/SIGTERM cancel the run: in-flight sessions drain through
	// Engine.Close (deferred below) and the process exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dialCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	gcfg := ddnn.DefaultGatewayConfig()
	gcfg.Threshold, gcfg.EdgeThreshold = *threshold, *edgeT
	eng, err := ddnn.Connect(dialCtx, model, addrs, upstream, ddnn.EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: *concurrency,
		Batch:          ddnn.BatchConfig{MaxBatch: *batch},
	})
	cancel()
	if err != nil {
		return err
	}
	defer eng.Close()

	if *register != "" {
		if err := eng.ServeRegistration(*register); err != nil {
			return err
		}
		fmt.Printf("registration plane on %s (topology version %d)\n", *register, eng.ConfigVersion())
		if *waitDevices > 0 {
			if err := waitForMembers(ctx, eng, *waitDevices); err != nil {
				return err
			}
		}
	}

	n := test.Len()
	if *samples > 0 && *samples < n {
		n = *samples
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	labels := test.Labels(nil)
	start := time.Now()
	results, err := eng.ClassifyBatchTenantShed(ctx, ids, "", ddnn.ShedNone)
	if err != nil {
		if errors.Is(err, ddnn.ErrCanceled) && ctx.Err() != nil {
			fmt.Println("interrupted; drained in-flight sessions")
			return nil
		}
		return err
	}
	elapsed := time.Since(start)

	correct := 0
	exits := make(map[wire.ExitPoint]int)
	lat := metrics.NewLatencyRecorder()
	for i, res := range results {
		if res.Class == labels[i] {
			correct++
		}
		exits[res.Exit]++
		lat.Record(res.Latency)
	}

	l := float64(exits[wire.ExitLocal]) / float64(n)
	fmt.Printf("classified %d samples in %v (%.1f samples/s, %d concurrent sessions, %d upstream replicas)\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), *concurrency, len(upstream))
	fmt.Printf("accuracy:            %.1f%%\n", 100*float64(correct)/float64(n))
	fmt.Printf("local exits:         %.1f%% (T=%.2f)\n", l*100, *threshold)
	if model.Cfg.UseEdge {
		fmt.Printf("edge exits:          %.1f%% (T=%.2f)\n", 100*float64(exits[wire.ExitEdge])/float64(n), *edgeT)
		fmt.Printf("cloud exits:         %.1f%%\n", 100*float64(exits[wire.ExitCloud])/float64(n))
	}
	fmt.Printf("latency mean/p95:    %v / %v\n", lat.Mean().Round(time.Microsecond), lat.Percentile(95).Round(time.Microsecond))
	perDev := float64(eng.Gateway().Meter.Total()) / float64(model.Cfg.Devices) / float64(n)
	fmt.Printf("payload per device:  %.1f B/sample (Eq. 1: %.1f B; raw offload: %d B)\n",
		perDev, model.Cfg.CommCostBytes(l), model.Cfg.RawOffloadBytes())
	if down := eng.Gateway().DownDevices(); len(down) > 0 {
		fmt.Printf("devices marked down: %v\n", down)
	}
	return nil
}

// waitForMembers polls the versioned topology until every device slot
// is occupied, the window expires, or the run is interrupted. A partial
// membership at the deadline is reported but not fatal: the gateway
// classifies with whoever showed up.
func waitForMembers(ctx context.Context, eng *ddnn.Engine, window time.Duration) error {
	deadline := time.Now().Add(window)
	for {
		topo := eng.Topology()
		present := 0
		for _, p := range topo.Present {
			if p {
				present++
			}
		}
		if present == topo.Slots {
			fmt.Printf("all %d device slots registered (topology version %d)\n", topo.Slots, topo.Version)
			return nil
		}
		if time.Now().After(deadline) {
			fmt.Printf("proceeding with %d/%d device slots after %v (topology version %d)\n",
				present, topo.Slots, window, topo.Version)
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
