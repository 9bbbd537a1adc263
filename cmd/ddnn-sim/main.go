// Command ddnn-sim drives a DDNN hierarchy with the test set through the
// Engine API — concurrent classification sessions — and reports
// accuracy, exit distribution, latency, throughput and measured
// communication.
//
// By default it trains (or loads) a model and serves the complete
// hierarchy in one process over in-memory links: device nodes, a gateway
// whose heartbeats ride its data links, the edge replicas for edge-tier
// models, and the cloud replicas. With -devices plus -cloud (or
// -edge-addr for edge-tier models) it instead attaches over TCP to
// ddnn-node processes, which must have loaded the same -model and
// -data-seed.
//
// Usage:
//
//	ddnn-sim [-model model.ddnn] [-edge] [-epochs 25] [-replicas 1]
//	         [-threshold 0.8] [-edge-threshold 0.8] [-concurrency 8]
//	         [-batch 1] [-samples 0] [-data-seed 1]
//	         [-fail 2,5] [-churn 1] [-fail-replica] [-fail-at 0.33]
//	         [-recover-at 0.66]
//	ddnn-sim -model model.ddnn -devices 127.0.0.1:7001,...,127.0.0.1:7006
//	         -cloud 127.0.0.1:7100 [-cloud ...] | -edge-addr 127.0.0.1:7050 [-edge-addr ...]
//	         [-register 127.0.0.1:7200] [-wait-devices 30s] [-churn 1] ...
//
// -fail crashes in-process devices silently (the gateway discovers the
// loss through missed heartbeat echoes) at -fail-at and recovers them at
// -recover-at; -fail-replica does the same to upper-tier replica 0
// (needs -replicas > 1). -churn instead deregisters devices through the
// versioned topology (RemoveDevice) and re-admits them, so each change
// bumps the config version and takes effect on the next session without
// any detection lag; it works on either cluster.
//
// With -register the gateway serves the device registration plane:
// -devices may then name fewer devices than the model has slots (or
// leave entries empty), and the missing ones join at runtime via
// ddnn-node -tier device -register. -wait-devices holds the run until
// every slot fills or the window expires.
//
// SIGINT/SIGTERM cancel the run: in-flight sessions drain through the
// engine's Close and the process exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/cliutil"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ddnn-sim", flag.ContinueOnError)
	var c cliutil.Cluster
	c.Flags(fs)
	var (
		threshold   = fs.Float64("threshold", 0.8, "local exit entropy threshold T")
		edgeT       = fs.Float64("edge-threshold", 0.8, "edge exit entropy threshold (edge-tier models)")
		concurrency = fs.Int("concurrency", 8, "concurrent classification sessions")
		batch       = fs.Int("batch", 1, "micro-batch size: samples per session (1 = per-sample sessions)")
		samples     = fs.Int("samples", 0, "number of test samples to classify (0 = all)")
		failList    = fs.String("fail", "", "comma-separated device indices to crash at -fail-at (in-process cluster only)")
		churnList   = fs.String("churn", "", "comma-separated device indices to deregister (RemoveDevice) at -fail-at and re-admit at -recover-at — membership churn through the versioned topology, not silent failure")
		failReplica = fs.Bool("fail-replica", false, "also crash upper-tier replica 0 at -fail-at and recover it at -recover-at (in-process cluster, -replicas > 1)")
		failAt      = fs.Float64("fail-at", 0.33, "fraction of the run at which devices crash")
		recoverAt   = fs.Float64("recover-at", 0.66, "fraction at which crashed devices recover (>1: never)")
		waitDevices = fs.Duration("wait-devices", 0, "with -register, wait up to this long for every device slot to fill before classifying")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1, got %d", *concurrency)
	}
	// Parse the fault lists before spending minutes on training; the
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
	if c.Remote() && (len(failures) > 0 || *failReplica) {
		return errors.New("-fail and -fail-replica crash in-process nodes; over TCP, stop a ddnn-node process instead")
	}
	if *failReplica && c.Replicas < 2 {
		return errors.New("-fail-replica needs -replicas of at least 2 so the survivors can take over")
	}

	train, test := c.Dataset()
	model, err := c.Model(train, slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err != nil {
		return err
	}
	for _, d := range append(failures, churned...) {
		if d >= model.Cfg.Devices {
			return fmt.Errorf("bad -fail/-churn entry %d: model has %d devices", d, model.Cfg.Devices)
		}
	}

	eng, err := c.Engine(ctx, model, test, ddnn.EngineConfig{
		Gateway:        gatewayConfig(c.Remote(), *threshold, *edgeT),
		MaxConcurrency: *concurrency,
		Batch:          ddnn.BatchConfig{MaxBatch: *batch},
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	if c.Register != "" {
		fmt.Fprintf(stdout, "registration plane on %s (topology version %d)\n", c.Register, eng.Topology().Version)
		if *waitDevices > 0 {
			if err := waitForMembers(ctx, eng, *waitDevices, stdout); err != nil {
				return err
			}
		}
	}

	n := test.Len()
	if *samples > 0 && *samples < n {
		n = *samples
	}
	// inject crashes (down) or recovers everything the fault flags name;
	// lo is the number of samples classified so far.
	lo := 0
	inject := func(down bool) error {
		verb := map[bool]string{true: "crashing", false: "recovering"}[down]
		if len(failures) > 0 {
			fmt.Fprintf(stdout, "  [%d/%d] %s devices %v (marked down now: %v)\n", lo, n, verb, failures, eng.Gateway().DownDevices())
			for _, d := range failures {
				eng.Devices()[d].SetFailed(down)
			}
		}
		if *failReplica {
			if model.Cfg.UseEdge {
				fmt.Fprintf(stdout, "  [%d/%d] %s edge replica 0\n", lo, n, verb)
				eng.Edges()[0].SetFailed(down)
			} else {
				fmt.Fprintf(stdout, "  [%d/%d] %s cloud replica 0\n", lo, n, verb)
				eng.Clouds()[0].SetFailed(down)
			}
		}
		for _, d := range churned {
			var v uint64
			var err error
			if down {
				v, err = eng.RemoveDevice(d)
			} else {
				v, err = eng.AdmitDevice(ctx, d)
			}
			if err != nil {
				return fmt.Errorf("churn device %d: %w", d, err)
			}
			fmt.Fprintf(stdout, "  [%d/%d] device %d %s (topology version %d)\n",
				lo, n, d, map[bool]string{true: "deregistered", false: "re-admitted"}[down], v)
		}
		return nil
	}
	// The fault point, then the recovery point, in run order; a point at
	// or past the end of the run never fires.
	type point struct {
		at   int
		down bool
	}
	points := []point{{int(*failAt * float64(n)), true}, {int(*recoverAt * float64(n)), false}}
	if points[1].at < points[0].at {
		points[0], points[1] = points[1], points[0]
	}

	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	labels := test.Labels(nil)
	correct := 0
	exits := make(map[wire.ExitPoint]int)
	lat := metrics.NewLatencyRecorder()
	pool := eng.Gateway().Upstream()
	fmt.Fprintf(stdout, "classifying %d samples (T=%.2f, %d concurrent sessions, batch %d, %d/%d upstream replicas healthy)...\n",
		n, *threshold, *concurrency, *batch, pool.Healthy(), pool.Size())
	start := time.Now()
	// Classify the samples between consecutive points in one call, so
	// each fault lands at a well-defined sample index.
	for _, p := range append(points, point{at: n}) {
		if end := min(max(p.at, 0), n); end > lo {
			results, err := eng.ClassifyBatchTenantShed(ctx, ids[lo:end], "", ddnn.ShedNone)
			if err != nil {
				if errors.Is(err, ddnn.ErrCanceled) && ctx.Err() != nil {
					fmt.Fprintln(stdout, "interrupted; drained in-flight sessions")
					return nil
				}
				return fmt.Errorf("samples [%d,%d): %w", lo, end, err)
			}
			for i, res := range results {
				if res.Class == labels[lo+i] {
					correct++
				}
				exits[res.Exit]++
				lat.Record(res.Latency)
			}
			lo = end
		}
		if p.at < n {
			if err := inject(p.down); err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(start)

	l := float64(exits[wire.ExitLocal]) / float64(n)
	fmt.Fprintf(stdout, "\nclassified %d samples in %v (%.1f samples/s)\n", n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Fprintf(stdout, "accuracy:           %.1f%%\n", 100*float64(correct)/float64(n))
	fmt.Fprintf(stdout, "local exits:        %.1f%% (T=%.2f)\n", l*100, *threshold)
	if model.Cfg.UseEdge {
		fmt.Fprintf(stdout, "edge exits:         %.1f%% (T=%.2f)\n", 100*float64(exits[wire.ExitEdge])/float64(n), *edgeT)
		fmt.Fprintf(stdout, "cloud exits:        %.1f%%\n", 100*float64(exits[wire.ExitCloud])/float64(n))
	}
	fmt.Fprintf(stdout, "latency mean/p95:   %v / %v\n", lat.Mean().Round(time.Microsecond), lat.Percentile(95).Round(time.Microsecond))
	perDev := float64(eng.Gateway().Meter.Total()) / float64(model.Cfg.Devices) / float64(n)
	fmt.Fprintf(stdout, "payload per device: %.1f B/sample (Eq. 1: %.1f B, raw offload: %d B)\n",
		perDev, model.Cfg.CommCostBytes(l), model.Cfg.RawOffloadBytes())
	if down := eng.Gateway().DownDevices(); len(down) > 0 {
		fmt.Fprintf(stdout, "still down:         %v\n", down)
	}
	return nil
}

// gatewayConfig returns the gateway settings for the run. Over TCP the
// defaults hold: a heartbeat interval and timeouts sized for real round
// trips, and an edge timeout above the edge node's own cloud timeout so
// its fallback can answer. The in-process cluster's links are memory, so
// short timeouts and 50 ms heartbeats let -fail show detection and
// recovery within a short run.
func gatewayConfig(remote bool, threshold, edgeT float64) ddnn.GatewayConfig {
	gcfg := ddnn.DefaultGatewayConfig()
	gcfg.Threshold, gcfg.EdgeThreshold = threshold, edgeT
	if !remote {
		gcfg.DeviceTimeout = 500 * time.Millisecond
		gcfg.CloudTimeout = time.Second
		gcfg.EdgeTimeout = 2 * time.Second
		gcfg.HeartbeatInterval = 50 * time.Millisecond
	}
	return gcfg
}

// waitForMembers polls the versioned topology until every device slot
// is occupied, the window expires, or the run is interrupted. A partial
// membership at the deadline is reported but not fatal: the gateway
// classifies with whoever showed up.
func waitForMembers(ctx context.Context, eng *ddnn.Engine, window time.Duration, stdout io.Writer) error {
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
			fmt.Fprintf(stdout, "all %d device slots registered (topology version %d)\n", topo.Slots, topo.Version)
			return nil
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(stdout, "proceeding with %d/%d device slots after %v (topology version %d)\n",
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
