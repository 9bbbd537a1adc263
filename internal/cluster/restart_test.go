package cluster

import (
	"context"
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
	sim, err := NewReplicatedSim(model, test, gcfg, Topology{CloudReplicas: 2}, transport.NewMem(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ref := model.Evaluate(test, nil, 32)
	ctx := context.Background()

	check := func(id int) {
		t.Helper()
		res, err := classifyOne(ctx, sim.Gateway, uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		if want := core.Argmax(ref.CloudProbs[id]); res.Class != want {
			t.Fatalf("sample %d: class %d, staged reference says %d", id, res.Class, want)
		}
	}
	check(0)

	old := sim.CloudReplica(0)
	if err := sim.RestartCloud(0); err != nil {
		t.Fatal(err)
	}
	if sim.CloudReplica(0) == old {
		t.Fatal("restart kept the old node")
	}
	// Sessions right after the restart fail over to replica 1 and stay
	// bit-identical.
	for id := 1; id < 6; id++ {
		check(id)
	}
	// The reborn replica is re-admitted (trial session re-dial after the
	// fencing cooldown) and serves again.
	waitHealthy(t, sim.Gateway, 2, 5*time.Second)
	check(6)
}

// TestEdgeReplicaRestart is the edge-tier variant: the replacement edge
// node is rewired to the cloud pool before the old one dies.
func TestEdgeReplicaRestart(t *testing.T) {
	model, test := edgeFixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 0 // force escalation to the edge tier
	sim, err := NewReplicatedSim(model, test, gcfg, Topology{EdgeReplicas: 2, CloudReplicas: 1}, transport.NewMem(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ctx := context.Background()

	classify := func(id int) {
		t.Helper()
		res, err := classifyOne(ctx, sim.Gateway, uint64(id))
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		if res.Class < 0 {
			t.Fatalf("sample %d: class %d", id, res.Class)
		}
	}
	classify(0)
	old := sim.EdgeReplica(1)
	if err := sim.RestartEdge(1); err != nil {
		t.Fatal(err)
	}
	if sim.EdgeReplica(1) == old {
		t.Fatal("restart kept the old node")
	}
	for id := 1; id < 6; id++ {
		classify(id)
	}
	waitHealthy(t, sim.Gateway, 2, 5*time.Second)
}
