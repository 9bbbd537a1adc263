package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// waitFor polls cond every 10 ms until it holds or the timeout passes,
// and reports whether it held.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// TestStaticDeviceRedialedAfterRestart: a device the gateway dialed whose
// node restarts on the same address is re-dialed by the failure
// detector, and is up and present in sessions again within a few
// intervals, with no AdmitDevice call.
func TestStaticDeviceRedialedAfterRestart(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	gcfg := DefaultGatewayConfig()
	gcfg.HeartbeatInterval = 50 * time.Millisecond
	eng, err := NewEngine(model, test, EngineConfig{Gateway: gcfg, Logger: quietLogger()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const slot = 2
	old := eng.Devices()[slot]
	addr := old.Addr()
	old.Close()
	fresh := NewDevice(model, slot, DatasetFeed(test, slot), quietLogger())
	if err := fresh.Serve(tr, addr); err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	gw := eng.Gateway()
	back := waitFor(40*gcfg.HeartbeatInterval, func() bool {
		res, err := classifyOne(context.Background(), gw, 0)
		return err == nil && res.Present[slot] && len(gw.DownDevices()) == 0
	})
	if !back {
		t.Fatalf("slot %d not up and present within %v of its device restarting (down: %v)", slot, 40*gcfg.HeartbeatInterval, gw.DownDevices())
	}
}

func TestHeartbeatDetectsFailureAndRecovery(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	cfg := DefaultGatewayConfig()
	cfg.HeartbeatInterval = 25 * time.Millisecond

	addrs := make([]string, model.Cfg.Devices)
	var devices []*Device
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, DatasetFeed(test, d), quietLogger())
		addrs[d] = fmt.Sprintf("hb-device-%d", d)
		if err := dev.Serve(tr, addrs[d]); err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		devices = append(devices, dev)
	}
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "hb-cloud"); err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	gw, err := NewGateway(context.Background(), model, cfg, tr, addrs, []string{"hb-cloud"}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Crash device 3 and wait for the detector.
	devices[3].SetFailed(true)
	waitFor(3*time.Second, func() bool { return len(gw.DownDevices()) != 0 })
	if down := gw.DownDevices(); len(down) != 1 || down[0] != 3 {
		t.Fatalf("DownDevices = %v, want [3]", down)
	}

	// Classification keeps working and skips the dead device immediately.
	res, err := classifyOne(context.Background(), gw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Present[3] {
		t.Error("down device contributed to inference")
	}

	// Recover the device; its next heartbeat echo must re-admit it.
	devices[3].SetFailed(false)
	if !waitFor(3*time.Second, func() bool { return len(gw.DownDevices()) == 0 }) {
		t.Fatalf("device did not recover: DownDevices = %v", gw.DownDevices())
	}
	res, err = classifyOne(context.Background(), gw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Present[3] {
		t.Error("recovered device still excluded from inference")
	}
}

func TestGatewayRejectsNegativeHeartbeatInterval(t *testing.T) {
	model, _ := fixture(t)
	cfg := DefaultGatewayConfig()
	cfg.HeartbeatInterval = -time.Millisecond
	if _, err := NewGateway(context.Background(), model, cfg, transport.NewMem(), nil, []string{"nope"}, quietLogger()); err == nil {
		t.Error("accepted a negative heartbeat interval")
	}
}

func TestHeartbeatDrivesEdgeUpstreamState(t *testing.T) {
	model, test := edgeFixture(t)
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // escalations exercise the upstream state
	cfg.EdgeTimeout = 500 * time.Millisecond
	cfg.HeartbeatInterval = 25 * time.Millisecond
	eng := startEngine(t, model, test, EngineConfig{Gateway: cfg})

	eng.Edges()[0].SetFailed(true)
	if !waitFor(3*time.Second, eng.Gateway().UpstreamDown) {
		t.Fatal("heartbeats never marked the edge down")
	}

	// Escalations now fail fast with the typed error, well under the
	// escalation timeout.
	start := time.Now()
	_, err := eng.ClassifyTenantShed(context.Background(), 0, "", ShedNone)
	if !errors.Is(err, ErrEdgeUnavailable) {
		t.Errorf("err = %v, want ErrEdgeUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > cfg.EdgeTimeout {
		t.Errorf("marked-down escalation took %v, want < %v", elapsed, cfg.EdgeTimeout)
	}

	// Recovery flips the flag back and sessions flow again.
	eng.Edges()[0].SetFailed(false)
	if !waitFor(3*time.Second, func() bool { return !eng.Gateway().UpstreamDown() }) {
		t.Fatal("edge did not recover")
	}
	if _, err := eng.ClassifyTenantShed(context.Background(), 1, "", ShedNone); err != nil {
		t.Fatalf("classification after recovery: %v", err)
	}
}

// TestEdgeHeartbeatFencesSilentCloud: the edge runs the same detector on
// its own cloud pool, at the default interval. A silent cloud is marked
// down with no traffic, so escalations fall back to the edge exit without
// waiting out EdgeConfig.CloudTimeout, and the cloud's next echo
// re-admits it with no session issued first.
func TestEdgeHeartbeatFencesSilentCloud(t *testing.T) {
	model, test := edgeFixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1     // every sample goes to the edge...
	gcfg.EdgeThreshold = -1 // ...and on to the cloud
	ecfg := DefaultEdgeConfig()
	eng := startEngine(t, model, test, EngineConfig{Gateway: gcfg, Edge: &ecfg})
	pool := eng.Edges()[0].cloud

	eng.Clouds()[0].SetFailed(true)
	if !waitFor(5*time.Second, pool.Down) {
		t.Fatal("the edge's detector never marked the silent cloud down")
	}
	start := time.Now()
	res, err := classifyOne(context.Background(), eng.Gateway(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != wire.ExitEdge {
		t.Errorf("exit = %v with the cloud down, want the edge fallback", res.Exit)
	}
	if elapsed := time.Since(start); elapsed > ecfg.CloudTimeout/10 {
		t.Errorf("fallback took %v, want well under the %v CloudTimeout", elapsed, ecfg.CloudTimeout)
	}

	eng.Clouds()[0].SetFailed(false)
	if !waitFor(5*time.Second, func() bool { return !pool.Down() }) {
		t.Fatal("the cloud's echo never re-admitted it at the edge")
	}
	if res, err = classifyOne(context.Background(), eng.Gateway(), 1); err != nil {
		t.Fatal(err)
	}
	if res.Exit != wire.ExitCloud {
		t.Errorf("exit = %v after the cloud recovered, want cloud", res.Exit)
	}
}

// TestHeartbeatFlappingDeviceRecovery exercises recovery flapping (run
// with -race in CI): a device that oscillates down→up→down across
// heartbeat intervals must be skipped while down and re-admitted while up
// by in-flight Classify calls, without races between the detector's
// state flips and the sessions reading them. Every session must end with
// a result (Present may or may not include the flapping device, depending
// on where the flap landed) or a typed error — never an untyped failure,
// never a deadlock.
func TestHeartbeatFlappingDeviceRecovery(t *testing.T) {
	model, test := fixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.DeviceTimeout = 200 * time.Millisecond
	gcfg.HeartbeatInterval = 20 * time.Millisecond
	eng := startEngine(t, model, test, EngineConfig{Gateway: gcfg, MaxConcurrency: 4})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	errs := make(chan error, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.ClassifyTenantShed(ctx, uint64((w*31+i)%test.Len()), "", ShedNone)
				if err != nil {
					if !errors.Is(err, ErrNoSummaries) && !errors.Is(err, ErrCloudUnavailable) &&
						!errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCanceled) {
						errs <- fmt.Errorf("worker %d: untyped error: %w", w, err)
						return
					}
					continue
				}
				if res.Class < 0 || res.Class >= model.Cfg.Classes {
					errs <- fmt.Errorf("worker %d: class %d out of range", w, res.Class)
					return
				}
			}
		}(w)
	}

	// Flap device 1 across several heartbeat intervals: down long enough
	// for the detector to mark it (2 silent intervals of 20 ms), up long
	// enough to be re-admitted, repeatedly.
	dev := eng.Devices()[1]
	for cycle := 0; cycle < 4; cycle++ {
		dev.SetFailed(true)
		time.Sleep(90 * time.Millisecond)
		dev.SetFailed(false)
		time.Sleep(90 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// With the device finally healthy, an echo must re-admit it and
	// sessions must see it present again.
	if !waitFor(3*time.Second, func() bool { return len(eng.Gateway().DownDevices()) == 0 }) {
		t.Fatalf("flapping device never re-admitted: DownDevices = %v", eng.Gateway().DownDevices())
	}
	res, err := eng.ClassifyTenantShed(context.Background(), 0, "", ShedNone)
	if err != nil {
		t.Fatalf("classification after flap settled: %v", err)
	}
	if !res.Present[1] {
		t.Error("recovered device still absent from inference")
	}
}

// TestHeartbeatSurvivesUnresponsivePeer pins the heartbeat's write
// deadline: a device that accepts its connection but never drains it (a
// wedged process — over the unbuffered in-memory transport every write
// then blocks until read) must be marked down like any silent node, and
// Close must still return. Without the deadline the first blocked
// heartbeat would hold the link's writer, and with it every session's
// send, forever.
func TestHeartbeatSurvivesUnresponsivePeer(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	// The engine's cloud-0 is the gateway's upstream.
	eng, err := NewEngine(model, test, EngineConfig{Gateway: DefaultGatewayConfig(), Logger: quietLogger()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Black-hole listeners: they accept connections and never read a
	// byte.
	var (
		mu    sync.Mutex
		conns []interface{ Close() error }
	)
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	addrs := make([]string, model.Cfg.Devices)
	for d := range addrs {
		addrs[d] = fmt.Sprintf("blackhole-%d", d)
		l, err := tr.Listen(addrs[d])
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
			}
		}()
	}

	cfg := DefaultGatewayConfig()
	cfg.HeartbeatInterval = 20 * time.Millisecond
	gw, err := NewGateway(context.Background(), model, cfg, tr, addrs, []string{"cloud-0"}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}

	// The blocked writes must count as silence: every device goes down
	// even though no heartbeat ever errored out at the peer.
	waitFor(5*time.Second, func() bool { return len(gw.DownDevices()) == model.Cfg.Devices })
	if down := gw.DownDevices(); len(down) != model.Cfg.Devices {
		t.Fatalf("DownDevices = %v, want all %d devices", down, model.Cfg.Devices)
	}

	// And the detector must stay stoppable while every peer wedges.
	done := make(chan struct{})
	go func() {
		gw.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Gateway.Close wedged on unresponsive peers")
	}
}

// TestHeartbeatReadmitsRestartedReplicaWithoutTraffic: a replica the
// detector marked down that comes back as a fresh process is re-dialed
// and re-admitted by its first echo, with no classification issued —
// the property the chaos harness's recovery wait relies on.
func TestHeartbeatReadmitsRestartedReplicaWithoutTraffic(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.HeartbeatInterval = 25 * time.Millisecond
	eng := newTwoTier(t, cfg)
	pool := eng.Gateway().Upstream()

	eng.Clouds()[0].SetFailed(true)
	if !waitFor(3*time.Second, eng.Gateway().UpstreamDown) {
		t.Fatal("heartbeats never marked the cloud down")
	}
	if err := eng.RestartCloud(0); err != nil {
		t.Fatal(err)
	}
	if !waitFor(3*time.Second, func() bool { return pool.Healthy() == pool.Size() }) {
		t.Fatalf("restarted cloud never re-admitted: %d/%d healthy", pool.Healthy(), pool.Size())
	}
}

// TestHeartbeatsOnlyOnIdleLinks pins that heartbeats cost nothing on busy
// links: back-to-back sessions, each well inside the interval, move the
// same device-link bytes over several intervals as the same sessions
// under a detector whose interval outlasts the test, which never beats.
// Once the links go idle, the byte counts grow by whole heartbeat frames
// only.
func TestHeartbeatsOnlyOnIdleLinks(t *testing.T) {
	model, test := fixture(t)
	const interval = 100 * time.Millisecond
	start := func(hb time.Duration) (*Engine, *Gateway) {
		cfg := DefaultGatewayConfig()
		cfg.Threshold = -1 // every session also uses the upstream link
		cfg.HeartbeatInterval = hb
		eng := startEngine(t, model, test, EngineConfig{Gateway: cfg})
		return eng, eng.Gateway()
	}
	classify := func(gw *Gateway, id int) {
		if _, err := classifyOne(context.Background(), gw, uint64(id%test.Len())); err != nil {
			t.Fatal(err)
		}
	}
	bytesOf := func(gw *Gateway) [2]int64 { up, down := gw.WireBytes(); return [2]int64{up, down} }

	// Busy for three intervals. If the scheduler ever left a link without
	// a frame for half an interval, the premise did not hold.
	last := time.Now()
	eng, gw := start(interval)
	begin, worst, n := last, time.Duration(0), 0
	for ; time.Since(begin) < 3*interval; n++ {
		classify(gw, n)
		worst, last = max(worst, time.Since(last)), time.Now()
	}
	busy := bytesOf(gw)
	if worst = max(worst, time.Since(last)); worst > interval/2 {
		t.Skipf("a session took %v, not well inside the %v interval", worst, interval)
	}
	time.Sleep(4*interval + interval/2)
	eng.Close() // stops the detector, so no frame is half counted
	idle := bytesOf(gw)

	_, quietGW := start(time.Hour)
	for id := 0; id < n; id++ {
		classify(quietGW, id)
	}
	if quiet := bytesOf(quietGW); busy != quiet {
		t.Fatalf("%d busy sessions moved %v B (up, down) with heartbeats, %v B without", n, busy, quiet)
	}
	var frame bytes.Buffer
	if _, err := wire.Encode(&frame, &wire.Heartbeat{NodeID: "gateway"}); err != nil {
		t.Fatal(err)
	}
	for i, dir := range []string{"up", "down"} {
		if delta := idle[i] - busy[i]; delta <= 0 || delta%int64(frame.Len()) != 0 {
			t.Errorf("idle links moved %d B %s, want a positive multiple of the %d B heartbeat frame", delta, dir, frame.Len())
		}
	}
}
