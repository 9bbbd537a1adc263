package main

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// TestRunRejectsBadFlags: flag mistakes fail with a message naming the
// flag before any model is trained or any node is dialed.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-concurrency", "0"}, "-concurrency must be at least 1"},
		{[]string{"-fail", "x"}, "bad -fail"},
		{[]string{"-churn", "-1"}, "bad -churn"},
		{[]string{"-fail", "1", "-cloud", "127.0.0.1:1"}, "crash in-process nodes"},
		{[]string{"-fail-replica", "-devices", "127.0.0.1:1"}, "crash in-process nodes"},
		{[]string{"-fail-replica"}, "-fail-replica needs -replicas of at least 2"},
		{[]string{"-replicas", "0"}, "-replicas must be at least 1"},
		{[]string{"-cloud", "127.0.0.1:1"}, "needs -model"},
		{[]string{"-register", "127.0.0.1:1"}, "needs -model"},
		{[]string{"-cloud", "127.0.0.1:1", "-model", "m.ddnn", "-replicas", "2"}, "-replicas starts in-process replicas"},
	} {
		err := run(context.Background(), tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// saveModel trains a small two-tier model for one epoch and writes it
// to a temporary file.
func saveModel(t *testing.T) (string, *ddnn.Model) {
	t.Helper()
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Train, dcfg.Test = 60, 20
	train, _ := ddnn.GenerateDataset(dcfg)
	cfg := ddnn.DefaultConfig()
	cfg.CloudFilters = 8
	m := ddnn.MustNewModel(cfg)
	tc := ddnn.DefaultTrainConfig()
	tc.Epochs = 1
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ddnn")
	if err := ddnn.SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	return path, m
}

// TestRunDrivesTCPCluster attaches to device and cloud nodes listening
// on loopback TCP, churns one device's membership mid-run, and
// classifies every requested sample.
func TestRunDrivesTCPCluster(t *testing.T) {
	path, m := saveModel(t)
	_, test := ddnn.GenerateDataset(ddnn.DefaultDatasetConfig())
	var devices []string
	for d := 0; d < m.Cfg.Devices; d++ {
		dev := cluster.NewDevice(m, d, cluster.DatasetFeed(test, d), nil)
		if err := dev.Serve(transport.TCP{}, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		devices = append(devices, dev.Addr())
	}
	cloud := cluster.NewCloud(m, nil)
	if err := cloud.Serve(transport.TCP{}, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })

	var out strings.Builder
	err := run(context.Background(), []string{
		"-model", path, "-devices", strings.Join(devices, ","), "-cloud", cloud.Addr(),
		"-samples", "24", "-batch", "4", "-churn", "2", "-fail-at", "0.25", "-recover-at", "0.5",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"[6/24] device 2 deregistered (topology version 2)",
		"[12/24] device 2 re-admitted (topology version 3)",
		"classified 24 samples",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestGatewayConfigKeepsDefaultsOverTCP: an attached gateway runs with
// the default heartbeat and timeouts, whose edge timeout sits above an
// edge node's cloud timeout; only the in-process cluster shortens them.
func TestGatewayConfigKeepsDefaultsOverTCP(t *testing.T) {
	want := ddnn.DefaultGatewayConfig()
	want.Threshold, want.EdgeThreshold = 0.3, 0.4
	if got := gatewayConfig(true, 0.3, 0.4); got != want {
		t.Errorf("TCP gateway config = %+v, want the defaults %+v", got, want)
	}
	if want.EdgeTimeout <= 5*time.Second {
		t.Errorf("default EdgeTimeout %v does not exceed the edge node's 5s -cloud-timeout", want.EdgeTimeout)
	}
	mem := gatewayConfig(false, 0.3, 0.4)
	if mem.HeartbeatInterval != 50*time.Millisecond || mem.DeviceTimeout != 500*time.Millisecond {
		t.Errorf("in-process gateway config = %+v, want 50ms heartbeats and a 500ms device timeout", mem)
	}
	if mem.Threshold != 0.3 || mem.EdgeThreshold != 0.4 {
		t.Errorf("in-process thresholds = %v/%v, want 0.3/0.4", mem.Threshold, mem.EdgeThreshold)
	}
}

// TestRunInProcessInjectsFaults crashes a device and a cloud replica of
// the in-process cluster at -fail-at, recovers both at -recover-at, and
// still classifies every sample.
func TestRunInProcessInjectsFaults(t *testing.T) {
	path, _ := saveModel(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"-model", path, "-samples", "24", "-replicas", "2",
		"-fail", "1", "-fail-replica", "-fail-at", "0.25", "-recover-at", "0.75",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"2/2 upstream replicas healthy",
		"[6/24] crashing devices [1]",
		"[6/24] crashing cloud replica 0",
		"[18/24] recovering devices [1]",
		"[18/24] recovering cloud replica 0",
		"classified 24 samples",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
