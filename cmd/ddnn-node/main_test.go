package main

import (
	"bufio"
	"context"
	"io"
	"net"
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
		{[]string{"-tier", "device", "-register", "127.0.0.1:7200", "-listen", "127.0.0.1:7006"},
			"-listen and -register exclude each other: a registering device serves on the connection it dials"},
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
	path, model := trainModel(t, true)

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

	remote, err := ddnn.Connect(ctx, model, devices, []string{edge}, engineConfig)
	if err != nil {
		t.Fatal(err)
	}
	answersMatchInProcess(t, ctx, model, remote)
	remote.Close()

	cancel()
	for _, done := range nodes {
		drained(t, done)
	}
}

// TestRegisteredDeviceServesWithoutListening runs the last device with
// -register and no listener against a gateway whose other slots are
// attached by address: the device dials in, the gateway's answers equal
// the in-process engine's, and on cancellation the device says goodbye
// — its slot goes vacant — drains and prints the drain notice.
func TestRegisteredDeviceServesWithoutListening(t *testing.T) {
	path, model := trainModel(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var nodes []<-chan nodeExit
	start := func(args ...string) string {
		addr, done := startNode(t, ctx, append([]string{"-model", path, "-listen", "127.0.0.1:0"}, args...)...)
		nodes = append(nodes, done)
		return addr
	}
	cloud := start("-tier", "cloud")
	last := model.Cfg.Devices - 1
	devices := make([]string, last)
	for d := range devices {
		devices[d] = start("-tier", "device", "-device", strconv.Itoa(d))
	}
	remote, err := ddnn.Connect(ctx, model, devices, []string{cloud}, engineConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	register := l.Addr().String()
	l.Close()
	if err := remote.ServeRegistration(register); err != nil {
		t.Fatal(err)
	}

	devCtx, leave := context.WithCancel(ctx)
	defer leave()
	_, done := startNode(t, devCtx, "-model", path, "-tier", "device", "-device", strconv.Itoa(last), "-register", register)
	if !remote.Topology().Present[last] {
		t.Fatalf("slot %d not present after the device registered", last)
	}
	answersMatchInProcess(t, ctx, model, remote)

	leave()
	drained(t, done)
	if remote.Topology().Present[last] {
		t.Errorf("slot %d still present after the device drained", last)
	}
	cancel()
	for _, done := range nodes {
		drained(t, done)
	}
}

// engineConfig is the gateway both the TCP engines and their in-process
// reference run.
var engineConfig = ddnn.EngineConfig{Gateway: ddnn.DefaultGatewayConfig(), MaxConcurrency: 4}

// trainModel trains a small model, with or without an edge tier, saves
// it for the nodes to load, and returns its path and the loaded model.
func trainModel(t *testing.T, useEdge bool) (string, *ddnn.Model) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.ddnn")
	dcfg := ddnn.DefaultDatasetConfig()
	dcfg.Train, dcfg.Test = 60, 20
	train, _ := ddnn.GenerateDataset(dcfg)
	cfg := ddnn.DefaultConfig()
	cfg.UseEdge, cfg.CloudFilters = useEdge, 8
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
	return path, model
}

// answersMatchInProcess requires remote's answers for 24 samples to
// equal those of an in-process engine over the same model.
func answersMatchInProcess(t *testing.T, ctx context.Context, model *ddnn.Model, remote *ddnn.Engine) {
	t.Helper()
	ids := make([]uint64, 24)
	for i := range ids {
		ids[i] = uint64(i)
	}
	got, err := remote.ClassifyBatchTenantShed(ctx, ids, "", ddnn.ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	_, test := ddnn.GenerateDataset(ddnn.DefaultDatasetConfig())
	local, err := ddnn.NewEngine(model, test, engineConfig)
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
}

// drained waits for a cancelled node's run to return nil with the drain
// notice as its last line.
func drained(t *testing.T, done <-chan nodeExit) {
	t.Helper()
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

// nodeExit is what a node's run left behind: its error and its last
// line of output.
type nodeExit struct {
	err  error
	last string
}

// startNode runs ddnn-node with args until ctx ends and returns the
// address it serves on, read from its first output line ("… serving on
// ADDR …"; a registered device's line names no address), and a channel
// that yields how the run ended.
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
