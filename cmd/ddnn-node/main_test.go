package main

import (
	"bufio"
	"context"
	"io"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	ddnn "github.com/ddnn/ddnn-go"
)

// TestRunRejectsFlagsOfAnotherTier: an unknown -tier, and a flag that
// only another tier takes, fail before the model is loaded instead of
// being silently ignored.
func TestRunRejectsFlagsOfAnotherTier(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, `-tier must be device, edge or cloud, got ""`},
		{[]string{"-tier", "gateway"}, `-tier must be device, edge or cloud, got "gateway"`},
		{[]string{"-tier", "cloud", "-cloud", "127.0.0.1:7100"}, "-cloud applies to -tier edge, not -tier cloud"},
		{[]string{"-tier", "cloud", "-register", "127.0.0.1:7200"}, "-register applies to -tier device, not -tier cloud"},
		{[]string{"-tier", "edge", "-device", "2"}, "-device applies to -tier device, not -tier edge"},
		{[]string{"-tier", "device", "-no-fallback"}, "-no-fallback applies to -tier edge, not -tier device"},
	} {
		err := run(context.Background(), tc.args, io.Discard)
		if err == nil || err.Error() != tc.want {
			t.Errorf("run(%q) = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestEveryTierServesOverTCP deploys a three-tier hierarchy the way an
// operator does, one run per node on loopback TCP — a cloud, an edge
// dialing it, six devices — attaches an engine, and requires every
// answer to equal the in-process engine's for the same model file. Then
// it cancels the nodes' context, as SIGTERM does, and every node drains
// and returns nil.
func TestEveryTierServesOverTCP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edge.ddnn")
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Train, dcfg.Test = 60, 20
	train, _ := ddnn.GenerateDataset(dcfg)
	cfg := ddnn.DefaultConfig()
	cfg.UseEdge, cfg.CloudFilters = true, 8
	m := ddnn.MustNewModel(cfg)
	tc := ddnn.DefaultTrainConfig()
	tc.Epochs = 1
	if _, err := m.Train(train, tc); err != nil {
		t.Fatal(err)
	}
	if err := ddnn.SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	model, err := ddnn.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var nodes []<-chan nodeExit
	start := func(args ...string) string {
		addr, done := startNode(t, ctx, append([]string{"-model", path, "-listen", "127.0.0.1:0"}, args...)...)
		nodes = append(nodes, done)
		return addr
	}
	cloud := start("-tier", "cloud")
	edge := start("-tier", "edge", "-cloud", cloud)
	devices := make([]string, model.Cfg.Devices)
	for d := range devices {
		devices[d] = start("-tier", "device", "-device", strconv.Itoa(d))
	}

	ids := make([]uint64, 24)
	for i := range ids {
		ids[i] = uint64(i)
	}
	ecfg := ddnn.EngineConfig{Gateway: ddnn.DefaultGatewayConfig(), MaxConcurrency: 4}
	remote, err := ddnn.Connect(ctx, model, devices, []string{edge}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.ClassifyBatchTenantShed(ctx, ids, "", ddnn.ShedNone)
	remote.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, test := ddnn.GenerateDataset(ddnn.DefaultDatasetConfig())
	local, err := ddnn.NewEngine(model, test, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.ClassifyBatchTenantShed(ctx, ids, "", ddnn.ShedNone)
	local.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i].Class != want[i].Class || got[i].Exit != want[i].Exit || !reflect.DeepEqual(got[i].Probs, want[i].Probs) {
			t.Errorf("sample %d over TCP: class %d exit %v probs %v; in-process: class %d exit %v probs %v",
				i, got[i].Class, got[i].Exit, got[i].Probs, want[i].Class, want[i].Exit, want[i].Probs)
		}
	}

	cancel()
	for _, done := range nodes {
		select {
		case exit := <-done:
			if exit.err != nil {
				t.Errorf("node run returned %v", exit.err)
			}
			if !strings.HasPrefix(exit.last, "shutting down") {
				t.Errorf("node's last output line %q, want the drain notice", exit.last)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("node did not drain within 30s of cancellation")
		}
	}
}

// nodeExit is what a node's run left behind: its error and its last
// line of output.
type nodeExit struct {
	err  error
	last string
}

// startNode runs ddnn-node with args until ctx ends and returns the
// address it serves on, read from its first output line ("… serving on
// ADDR …"), and a channel that yields how the run ended.
func startNode(t *testing.T, ctx context.Context, args ...string) (string, <-chan nodeExit) {
	t.Helper()
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		errc <- err
	}()
	first := make(chan string, 1)
	done := make(chan nodeExit, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		var last string
		for sc.Scan() {
			if last == "" {
				first <- sc.Text()
			}
			last = sc.Text()
		}
		close(first)
		done <- nodeExit{<-errc, last}
	}()
	select {
	case line, ok := <-first:
		if !ok {
			t.Fatalf("ddnn-node %q exited before serving: %v", args, (<-done).err)
		}
		_, rest, found := strings.Cut(line, " serving on ")
		if !found {
			t.Fatalf("ddnn-node %q: first line %q names no address", args, line)
		}
		addr, _, _ := strings.Cut(rest, " ")
		return strings.TrimSuffix(addr, ","), done
	case <-time.After(30 * time.Second):
		t.Fatalf("ddnn-node %q did not start serving within 30s", args)
		return "", nil
	}
}
