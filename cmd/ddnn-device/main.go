// Command ddnn-device runs one end-device node: it loads a trained model,
// keeps only its own section in use, serves capture and feature-upload
// requests from a gateway, and feeds its sensor from the deterministic
// synthetic dataset (acting as the camera).
//
// Usage:
//
//	ddnn-device -model model.ddnn -device 0 -listen 127.0.0.1:7001 [-data-seed 1]
//	            [-register 127.0.0.1:7200] [-node-id cam-lobby]
//
// With -register the node announces itself to a running gateway's
// registration plane (DeviceHello) after its listener is up, joining the
// hierarchy without a gateway restart, and deregisters (DeviceGoodbye)
// on SIGINT/SIGTERM so the gateway drops the slot cleanly instead of
// discovering the loss through timeouts. On SIGINT/SIGTERM the node then
// drains: in-flight requests still answer, within 5 s in all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-device:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddnn-device", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "model.ddnn", "trained model file")
		device    = fs.Int("device", 0, "device index of this node")
		listen    = fs.String("listen", "127.0.0.1:7001", "listen address")
		dataSeed  = fs.Int64("data-seed", 1, "dataset seed (must match the gateway)")
		register  = fs.String("register", "", "gateway registration address: announce this node (DeviceHello) after the listener is up, deregister on shutdown")
		nodeID    = fs.String("node-id", "", "stable node identity for registration (default device-<index>)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	model, err := ddnn.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	if *device < 0 || *device >= model.Cfg.Devices {
		return fmt.Errorf("device %d out of range [0,%d)", *device, model.Cfg.Devices)
	}
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Seed = *dataSeed
	_, test := ddnn.GenerateDataset(dcfg)

	node := cluster.NewDevice(model, *device, cluster.DatasetFeed(test, *device), nil)
	if err := node.Serve(transport.TCP{}, *listen); err != nil {
		return err
	}
	fmt.Printf("device %d serving on %s (section: %d B deployed)\n",
		*device, node.Addr(), model.DeviceMemoryBytes())

	id := *nodeID
	if id == "" {
		id = fmt.Sprintf("device-%d", *device)
	}
	if *register != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		welcome, err := cluster.Register(ctx, transport.TCP{}, *register, &wire.DeviceHello{
			NodeID: id,
			Slot:   uint16(*device),
			Addr:   node.Addr(),
		})
		cancel()
		if err != nil {
			node.Close()
			return fmt.Errorf("register with %s: %w", *register, err)
		}
		fmt.Printf("registered with %s as slot %d/%d (topology version %d)\n",
			*register, welcome.Slot, welcome.Devices, welcome.ConfigVersion)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down")
	// One 5 s budget covers the goodbye and the drain: deregistering first
	// stops new sessions, then in-flight requests answer before teardown.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if *register != "" {
		_, err := cluster.Deregister(ctx, transport.TCP{}, *register, &wire.DeviceGoodbye{
			NodeID: id,
			Slot:   uint16(*device),
			Reason: "shutdown",
		})
		if err != nil {
			// Best-effort: the gateway will notice via timeouts anyway.
			fmt.Fprintf(os.Stderr, "ddnn-device: deregister: %v\n", err)
		} else {
			fmt.Printf("deregistered from %s\n", *register)
		}
	}
	if err := node.Drain(ctx); err != nil {
		fmt.Println("drain deadline exceeded; closed with requests in flight")
	}
	return nil
}
