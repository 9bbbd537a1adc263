package cluster

import (
	"context"
	"math/bits"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// TestLinkDeathEndsDeviceWait: a device whose link dies while the
// gateway waits for its summary leaves the session at once, not after
// DeviceTimeout. It is absent from every result, and each answer equals
// the staged reference under the mask the session reports.
func TestLinkDeathEndsDeviceWait(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "dying-device")
	const dead = 2
	addrs[dead] = "dying-device-fake"
	var hungUp atomic.Int32 // captures the device hung up on, unanswered
	rawPeer(t, tr, addrs[dead], func(_ net.Conn, m wire.Message) bool {
		_, ok := m.(*wire.CaptureBatch)
		if ok {
			hungUp.Add(1)
		}
		return ok
	})
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = 0.5 // a mix of local exits and cloud escalations
	gcfg.DeviceTimeout = 10 * time.Second
	gw, err := NewGateway(context.Background(), model, gcfg, tr, addrs, []string{cloudAddr}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ids := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	start := time.Now()
	results, err := gw.Classify(context.Background(), ids, "", ShedNone)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("session took %v with a dead device link, want well under DeviceTimeout (%v)", elapsed, gcfg.DeviceTimeout)
	}
	if err != nil {
		t.Fatal(err)
	}
	if hungUp.Load() != 1 {
		t.Fatalf("the device hung up on %d captures, want 1", hungUp.Load())
	}
	want := make([]bool, model.Cfg.Devices)
	for d := range want {
		want[d] = d != dead
	}
	ref := core.NewReference(model, test)
	pol := branchy.NewPolicy(0.5, 1)
	for i, res := range results {
		if !slices.Equal(res.Present, want) {
			t.Errorf("sample %d: present %v, want %v", ids[i], res.Present, want)
		}
		wantExit, wantClass := stagedExpectation(ref.For(res.Present, 1), pol, int(ids[i]))
		if res.Exit != wantExit || res.Class != wantClass {
			t.Errorf("sample %d: got %v/%d, staged reference says %v/%d", ids[i], res.Exit, res.Class, wantExit, wantClass)
		}
	}
}

// TestLinkDeathFailsReplicaOverAtOnce: a cloud replica whose link dies
// after it has read a session's frames, before it answers, fails the
// session over to the other replica at once, not after CloudTimeout, and
// the failed-over answer equals the staged reference.
func TestLinkDeathFailsReplicaOverAtOnce(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	addrs, cloudAddr := membershipCluster(t, tr, "dying-replica")
	// The replica hangs up, unanswered, once it has read the header and
	// one feature frame per device the header's masks name.
	var frames, hungUp atomic.Int32
	rawPeer(t, tr, "dying-replica-fake", func(_ net.Conn, m wire.Message) bool {
		switch m := m.(type) {
		case *wire.CloudClassifyBatch:
			var union uint16
			for _, mask := range m.Masks {
				union |= mask
			}
			frames.Store(int32(bits.OnesCount16(union)))
		case *wire.FeatureBatch:
			if frames.Add(-1) == 0 {
				hungUp.Add(1)
				return true
			}
		}
		return false
	})
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1 // every sample escalates
	gcfg.CloudTimeout = 10 * time.Second
	gw, err := NewGateway(context.Background(), model, gcfg, tr, addrs, []string{"dying-replica-fake", cloudAddr}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// The pool schedules by pick-two with round-robin ties, so a few
	// sessions land on each replica.
	ref := model.Evaluate(test, nil, 32)
	for id := 0; hungUp.Load() == 0; id++ {
		if id == 20 {
			t.Fatal("no session was scheduled on the dying replica")
		}
		start := time.Now()
		res, err := classifyOne(context.Background(), gw, uint64(id))
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("sample %d took %v, want well under CloudTimeout (%v)", id, elapsed, gcfg.CloudTimeout)
		}
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		if want := core.Argmax(ref.CloudProbs[id]); res.Exit != wire.ExitCloud || res.Class != want {
			t.Errorf("sample %d = %v/%d, want cloud/%d", id, res.Exit, res.Class, want)
		}
	}
}
