// Command ddnn-node runs one node of a DDNN hierarchy over TCP: an end
// device, an edge replica or a cloud replica, chosen by -tier. Every tier
// loads the same trained model file, keeps only its own section in use,
// serves sessions from a gateway (ddnn-sim or ddnn-serve attached with
// -devices), and drains on SIGINT/SIGTERM: it stops accepting, lets
// in-flight requests answer within -drain-timeout, then exits 0.
//
// Usage:
//
//	ddnn-node -tier device -model model.ddnn -device 0
//	          [-listen 127.0.0.1:7001 | -register 127.0.0.1:7200 [-node-id cam-lobby]]
//	          [-data-seed 1]
//	ddnn-node -tier edge -model model.ddnn [-listen 127.0.0.1:7050]
//	          -cloud 127.0.0.1:7100 [-cloud 127.0.0.1:7101 ...]
//	          [-cloud-timeout 5s] [-no-fallback]
//	ddnn-node -tier cloud -model model.ddnn [-listen 127.0.0.1:7100]
//
// A device node feeds its sensor from the deterministic synthetic
// dataset (acting as the camera), so it must share -data-seed with the
// gateway. By default it listens for the gateway's dial. With -register
// it listens for nothing: it dials a running gateway's registration
// plane, says hello (DeviceHello) and serves the gateway's sessions on
// that one connection, joining the hierarchy without a gateway restart
// — it works behind NAT or a firewall. When the link drops it re-dials
// every second until it is welcomed again, and on shutdown it says
// goodbye (DeviceGoodbye) on the link before it drains.
//
// An edge node needs a model trained with an edge tier (ddnn-train
// -edge). -cloud is repeatable (and accepts comma-separated lists):
// every address names one cloud replica, and the edge load-balances its
// escalations across the healthy replicas, failing over mid-session
// when one dies. With the whole cloud pool down the edge answers at its
// own exit unless -no-fallback is set.
//
// A flag that belongs to another tier is an error, not silently ignored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/cliutil"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/modelio"
	"github.com/ddnn/ddnn-go/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ddnn-node:", err)
		os.Exit(1)
	}
}

// tiers maps each -tier value to its default listen address and the
// flags only that tier takes.
var tiers = map[string]struct {
	listen string
	flags  []string
}{
	"device": {"127.0.0.1:7001", []string{"device", "data-seed", "register", "node-id"}},
	"edge":   {"127.0.0.1:7050", []string{"cloud", "cloud-timeout", "no-fallback"}},
	"cloud":  {"127.0.0.1:7100", nil},
}

// node is the lifecycle every tier's node shares.
type node interface {
	Serve(tr transport.Transport, addr string) error
	Addr() string
	Drain(ctx context.Context) error
	Close() error
}

// run serves one node until ctx ends, then drains it.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ddnn-node", flag.ContinueOnError)
	var cloudAddrs cliutil.AddrList
	fs.Var(&cloudAddrs, "cloud", "edge: cloud replica address (repeatable; default 127.0.0.1:7100)")
	var (
		tier         = fs.String("tier", "", "node tier: device, edge or cloud")
		modelPath    = fs.String("model", "model.ddnn", "trained model file")
		listen       = fs.String("listen", "", "listen address (default: device 127.0.0.1:7001, edge 127.0.0.1:7050, cloud 127.0.0.1:7100)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight requests (a device's goodbye included)")
		device       = fs.Int("device", 0, "device: index of this node's sensor")
		dataSeed     = fs.Int64("data-seed", 1, "device: dataset seed (must match the gateway)")
		register     = fs.String("register", "", "device: gateway registration address; dial it, say hello (DeviceHello) and serve on that connection instead of listening, say goodbye on shutdown")
		nodeID       = fs.String("node-id", "", "device: stable node identity for registration (default device-<index>)")
		cloudTimeout = fs.Duration("cloud-timeout", 5*time.Second, "edge: edge→cloud round trip bound")
		noFallback   = fs.Bool("no-fallback", false, "edge: abort escalated sessions when the cloud is down instead of answering at the edge")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkTierFlags(fs, *tier); err != nil {
		return err
	}
	if *register != "" && *listen != "" {
		return errors.New("-listen and -register exclude each other: a registering device serves on the connection it dials")
	}
	if *listen == "" {
		*listen = tiers[*tier].listen
	}

	// The node's registry holds the model under the file's version stamp,
	// which the gateway's sessions must pin.
	model, version, err := modelio.LoadFileVersioned(*modelPath)
	if err != nil {
		return err
	}
	var n node
	switch *tier {
	case "device":
		if *device < 0 || *device >= model.Cfg.Devices {
			return fmt.Errorf("device %d out of range [0,%d)", *device, model.Cfg.Devices)
		}
		dcfg := ddnn.DefaultDatasetConfig()
		dcfg.Seed = *dataSeed
		_, test := ddnn.GenerateDataset(dcfg)
		n = cluster.NewDevice(model, version, *device, cluster.DatasetFeed(test, *device), nil)
	case "edge":
		ed, err := cluster.NewEdge(model, version, cluster.EdgeConfig{CloudTimeout: *cloudTimeout, CloudFallback: !*noFallback}, nil)
		if err != nil {
			return err
		}
		if len(cloudAddrs) == 0 {
			cloudAddrs = cliutil.AddrList{tiers["cloud"].listen}
		}
		dialCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err = ed.ConnectCloud(dialCtx, transport.TCP{}, cloudAddrs...)
		cancel()
		if err != nil {
			ed.Close()
			return err
		}
		n = ed
	case "cloud":
		n = cluster.NewCloud(model, version, nil)
	}
	if *register != "" {
		id := *nodeID
		if id == "" {
			id = fmt.Sprintf("device-%d", *device)
		}
		joinCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		welcome, err := n.(*cluster.Device).Join(joinCtx, transport.TCP{}, *register, id)
		cancel()
		if err != nil {
			n.Close()
			return fmt.Errorf("register with %s: %w", *register, err)
		}
		fmt.Fprintf(stdout, "device %d registered with %s as slot %d/%d (topology version %d), serving on the link it dialed (section: %d B deployed)\n",
			*device, *register, welcome.Slot, welcome.Devices, welcome.ConfigVersion, model.DeviceMemoryBytes())
	} else {
		if err := n.Serve(transport.TCP{}, *listen); err != nil {
			n.Close()
			return err
		}
		switch *tier {
		case "device":
			fmt.Fprintf(stdout, "device %d serving on %s (section: %d B deployed)\n", *device, n.Addr(), model.DeviceMemoryBytes())
		case "edge":
			fmt.Fprintf(stdout, "edge serving on %s, escalating to %d cloud replica(s) at %s (%d devices, %d edge filters, %v edge aggregation)\n",
				n.Addr(), len(cloudAddrs), strings.Join(cloudAddrs, ","), model.Cfg.Devices, model.Cfg.EdgeFilters, model.Cfg.EdgeAgg)
		case "cloud":
			fmt.Fprintf(stdout, "cloud serving on %s (%d devices expected, %v aggregation)\n", n.Addr(), model.Cfg.Devices, model.Cfg.CloudAgg)
		}
	}

	<-ctx.Done()
	fmt.Fprintf(stdout, "shutting down (draining up to %v)\n", *drainTimeout)
	// One budget covers a registered device's goodbye and the drain. ctx
	// has ended by now, so the budget cannot derive from it.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// A drain-deadline overrun is reported but not an error: the process
	// still exits cleanly.
	if err := n.Drain(drainCtx); err != nil {
		fmt.Fprintln(stdout, "drain deadline exceeded; closed with requests in flight")
	}
	return nil
}

// checkTierFlags rejects an unknown -tier and any flag set on the command
// line that belongs to another tier.
func checkTierFlags(fs *flag.FlagSet, tier string) error {
	if _, ok := tiers[tier]; !ok {
		return fmt.Errorf("-tier must be device, edge or cloud, got %q", tier)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		for other, t := range tiers {
			if other != tier && err == nil && slices.Contains(t.flags, f.Name) {
				err = fmt.Errorf("-%s applies to -tier %s, not -tier %s", f.Name, other, tier)
			}
		}
	})
	return err
}
