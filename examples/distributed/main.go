// Distributed: runs the full DDNN hierarchy as separate nodes over real
// TCP sockets on loopback and fronts them with the Engine — concurrent,
// context-aware sessions over a real protocol stack — reporting per-exit
// latency, throughput and measured communication (the vertical scaling
// story of §V).
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Train, dcfg.Test = 300, 60
	train, test := ddnn.GenerateDataset(dcfg)

	model := ddnn.MustNewModel(ddnn.DefaultConfig())
	tc := ddnn.DefaultTrainConfig()
	tc.Epochs = 18
	fmt.Println("training in the \"cloud\" (single process, §III-C)...")
	if _, err := model.Train(train, tc); err != nil {
		return err
	}

	// Deploy: every node listens on its own TCP port on loopback.
	tr := transport.TCP{}
	fmt.Println("deploying sections onto TCP nodes...")
	addrs := make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := cluster.NewDevice(model, 1, d, cluster.DatasetFeed(test, d), nil)
		if err := dev.Serve(tr, "127.0.0.1:0"); err != nil {
			return err
		}
		defer dev.Close()
		addrs[d] = dev.Addr()
		fmt.Printf("  device %d  @ %s\n", d+1, addrs[d])
	}
	cloud := cluster.NewCloud(model, 1, nil)
	if err := cloud.Serve(tr, "127.0.0.1:0"); err != nil {
		return err
	}
	defer cloud.Close()
	fmt.Printf("  cloud     @ %s\n", cloud.Addr())

	// Front the remote nodes with an Engine: each Classify is a session
	// multiplexed over the shared TCP links.
	ctx := context.Background()
	eng, err := ddnn.Connect(ctx, model, addrs, []string{cloud.Addr()}, ddnn.EngineConfig{
		Gateway:        ddnn.DefaultGatewayConfig(), // local exit threshold T = 0.8
		MaxConcurrency: 8,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	n := test.Len()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	fmt.Printf("\nclassifying %d samples over TCP (T=0.8, 8 concurrent sessions)...\n", n)
	start := time.Now()
	results, err := eng.ClassifyBatchTenantShed(ctx, ids, "", ddnn.ShedNone)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	localLat := metrics.NewLatencyRecorder()
	cloudLat := metrics.NewLatencyRecorder()
	labels := test.Labels(nil)
	correct := 0
	for i, res := range results {
		if res.Class == labels[i] {
			correct++
		}
		if res.Exit == wire.ExitLocal {
			localLat.Record(res.Latency)
		} else {
			cloudLat.Record(res.Latency)
		}
	}

	fmt.Printf("\nthroughput:        %.1f samples/s (%v total)\n", float64(n)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	fmt.Printf("accuracy:          %.1f%%\n", 100*float64(correct)/float64(n))
	fmt.Printf("local exits:       %d/%d samples, mean latency %v (p95 %v)\n",
		localLat.Count(), n, localLat.Mean().Round(time.Microsecond), localLat.Percentile(95).Round(time.Microsecond))
	fmt.Printf("cloud exits:       %d/%d samples, mean latency %v (p95 %v)\n",
		cloudLat.Count(), n, cloudLat.Mean().Round(time.Microsecond), cloudLat.Percentile(95).Round(time.Microsecond))
	perDev := float64(eng.Gateway().Meter.Total()) / float64(model.Cfg.Devices) / float64(n)
	fmt.Printf("payload per device: %.1f B/sample (Eq. 1 predicts %.1f B at this exit rate)\n",
		perDev, model.Cfg.CommCostBytes(float64(localLat.Count())/float64(n)))
	fmt.Printf("raw-offload baseline would cost %d B/sample\n", model.Cfg.RawOffloadBytes())
	return nil
}
