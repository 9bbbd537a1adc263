package cluster

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// waitHealthy polls the pool until n replicas are healthy or the
// deadline passes.
func waitHealthy(t *testing.T, gw *Gateway, n int, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if gw.Upstream().Healthy() >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("pool never recovered to %d healthy replicas (have %d)", n, gw.Upstream().Healthy())
}

// TestCloudReplicaRestart hard-restarts a cloud replica (listener and
// links die, then a fresh node serves the same address) and checks that
// escalations keep answering bit-identically through the failover and
// that the pool re-admits the reborn replica.
func TestCloudReplicaRestart(t *testing.T) {
	model, test := fixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 0 // force every sample through the cloud
	gcfg.CloudTimeout = 2 * time.Second
	eng := startEngine(t, model, test, EngineConfig{Gateway: gcfg, CloudReplicas: 2})
	ref := model.Evaluate(test, nil, 32)
	ctx := context.Background()

	check := func(id int) {
		t.Helper()
		res, err := classifyOne(ctx, eng.Gateway(), uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		if want := core.Argmax(ref.CloudProbs[id]); res.Class != want {
			t.Fatalf("sample %d: class %d, staged reference says %d", id, res.Class, want)
		}
	}
	check(0)

	old := eng.Clouds()[0]
	if err := eng.RestartCloud(0); err != nil {
		t.Fatal(err)
	}
	if eng.Clouds()[0] == old {
		t.Fatal("restart kept the old node")
	}
	// Sessions right after the restart fail over to replica 1 and stay
	// bit-identical.
	for id := 1; id < 6; id++ {
		check(id)
	}
	// The reborn replica is reached again (a session's or the detector's
	// re-dial) and serves again.
	waitHealthy(t, eng.Gateway(), 2, 5*time.Second)
	check(6)
}

// TestEdgeReplicaRestart is the edge-tier variant: the replacement edge
// node is rewired to the cloud pool before the old one dies.
func TestEdgeReplicaRestart(t *testing.T) {
	model, test := edgeFixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 0 // force escalation to the edge tier
	eng := startEngine(t, model, test, EngineConfig{Gateway: gcfg, EdgeReplicas: 2})
	ctx := context.Background()

	classify := func(id int) {
		t.Helper()
		res, err := classifyOne(ctx, eng.Gateway(), uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		if res.Class < 0 {
			t.Fatalf("sample %d: class %d", id, res.Class)
		}
	}
	classify(0)
	old := eng.Edges()[1]
	if err := eng.RestartEdge(1); err != nil {
		t.Fatal(err)
	}
	if eng.Edges()[1] == old {
		t.Fatal("restart kept the old node")
	}
	for id := 1; id < 6; id++ {
		classify(id)
	}
	waitHealthy(t, eng.Gateway(), 2, 5*time.Second)
}

// refusingTransport is the in-memory transport with a switch that makes
// Listen fail.
type refusingTransport struct {
	*transport.Mem
	refuse atomic.Bool
}

func (r *refusingTransport) Listen(addr string) (net.Listener, error) {
	if r.refuse.Load() {
		return nil, fmt.Errorf("listen %s refused", addr)
	}
	return r.Mem.Listen(addr)
}

// TestEdgeRestartFailureClosesReplacement refuses a restart's Listen:
// the replacement edge, whose cloud pool connects before the old node is
// torn down, must be closed rather than leak its cloud links, and the
// slot must stay restartable — once a restart succeeds, the cloud
// replica holds exactly the connections it held before.
func TestEdgeRestartFailureClosesReplacement(t *testing.T) {
	model, test := edgeFixture(t)
	tr := &refusingTransport{Mem: transport.NewMem()}
	eng, err := NewEngine(model, test, EngineConfig{Gateway: DefaultGatewayConfig(), EdgeReplicas: 2, Logger: quietLogger()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cloud := eng.Clouds()[0]
	awaitConns := func(want int) {
		t.Helper()
		got := -1
		for stop := time.Now().Add(5 * time.Second); time.Now().Before(stop); time.Sleep(5 * time.Millisecond) {
			cloud.mu.Lock()
			got = len(cloud.conns)
			cloud.mu.Unlock()
			if got == want {
				return
			}
		}
		t.Fatalf("cloud replica holds %d connections, want %d", got, want)
	}
	before := len(eng.Edges()) // one pool link per edge replica
	awaitConns(before)

	tr.refuse.Store(true)
	if err := eng.RestartEdge(1); err == nil {
		t.Fatal("restart succeeded with Listen refused")
	}
	tr.refuse.Store(false)
	// The old edge-1 is torn down and the replacement closed: only
	// edge-0's link is left.
	awaitConns(before - 1)

	if err := eng.RestartEdge(1); err != nil {
		t.Fatalf("restart after a failed restart: %v", err)
	}
	awaitConns(before)
}
