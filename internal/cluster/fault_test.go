package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
)

// TestEdgeTierDeviceKillMidStreamNoDeadlock is the §IV-G degradation
// contract under the three-tier hierarchy and concurrency (run with
// -race in CI): device nodes are killed — and partially revived — while
// a stream of sessions is in flight, and every session must end in
// bounded time with either a result whose Present mask excludes dead
// devices or one of the typed serving errors. A deadlock fails the test
// via the watchdog.
func TestEdgeTierDeviceKillMidStreamNoDeadlock(t *testing.T) {
	model, test := edgeFixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1 // force escalation so the feature-fetch path races the kills
	gcfg.EdgeThreshold = 0.5
	gcfg.DeviceTimeout = 150 * time.Millisecond
	gcfg.EdgeTimeout = 2 * time.Second
	gcfg.MaxFailures = 0 // no sticky marking: every session re-probes the dead devices
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 8,
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const workers = 6
	const perWorker = 10
	errs := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	var killOnce, reviveOnce sync.Once
	var completed int32
	var mu sync.Mutex

	bump := func() int32 {
		mu.Lock()
		defer mu.Unlock()
		completed++
		return completed
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := eng.ClassifyTenantShed(ctx, uint64((w*perWorker+i)%test.Len()), "", ShedNone)
				done := bump()
				// Kill half the devices mid-stream once the pipeline is
				// warm, and revive one of them later, racing in-flight
				// capture and feature-fetch rounds.
				if done == workers*perWorker/4 {
					killOnce.Do(func() {
						for d := 0; d < model.Cfg.Devices/2; d++ {
							eng.Devices()[d].SetFailed(true)
						}
					})
				}
				if done == workers*perWorker/2 {
					reviveOnce.Do(func() { eng.Devices()[0].SetFailed(false) })
				}
				if err != nil {
					// §IV-G degradation: failures must surface as one of
					// the typed serving errors, never anything untyped.
					if !errors.Is(err, ErrNoSummaries) &&
						!errors.Is(err, ErrEdgeUnavailable) &&
						!errors.Is(err, ErrCloudUnavailable) &&
						!errors.Is(err, ErrDeadlineExceeded) &&
						!errors.Is(err, ErrCanceled) &&
						!errors.Is(err, ErrClosed) {
						errs <- fmt.Errorf("worker %d sample %d: untyped error: %w", w, i, err)
					}
					continue
				}
				// Masked aggregation: a result produced while devices are
				// dead must not claim contributions from all of them...
				// unless the session raced the kill; what it must never
				// do is claim a class outside the label space.
				if res.Class < 0 || res.Class >= model.Cfg.Classes {
					errs <- fmt.Errorf("worker %d sample %d: class %d out of range", w, i, res.Class)
				}
			}
		}(w)
	}

	// Watchdog: the whole stream must drain well before the context
	// deadline; a stuck session means a deadlock in the escalation path.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(55 * time.Second):
		t.Fatal("deadlock: fault-injection stream did not drain")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After reviving every device the engine must serve cleanly again.
	for d := 0; d < model.Cfg.Devices; d++ {
		eng.Devices()[d].SetFailed(false)
	}
	res, err := eng.ClassifyTenantShed(context.Background(), 0, "", ShedNone)
	if err != nil {
		t.Fatalf("classification after full recovery: %v", err)
	}
	for d, p := range res.Present {
		if !p {
			t.Errorf("device %d still absent after recovery", d)
		}
	}
}

// TestHealthMonitorFlappingDeviceRecovery exercises recovery flapping
// (run with -race in CI): a device that oscillates down→up→down across
// probe intervals must be skipped while down and re-admitted while up by
// in-flight Classify calls, without races between the monitor's state
// flips and the sessions reading them. Every session must end with a
// result (Present may or may not include the flapping device, depending
// on where the flap landed) or a typed error — never an untyped failure,
// never a deadlock.
func TestHealthMonitorFlappingDeviceRecovery(t *testing.T) {
	model, test := fixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.MaxFailures = 0 // detection belongs to the health monitor alone
	gcfg.DeviceTimeout = 200 * time.Millisecond
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 4,
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hm, err := eng.StartHealthMonitor(context.Background(), 20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hm.Stop()

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

	// Flap device 1 across several probe intervals: down long enough for
	// the detector to mark it (2 misses at 20 ms), up long enough to be
	// re-admitted, repeatedly.
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

	// With the device finally healthy, the monitor must re-admit it and
	// sessions must see it present again.
	deadline := time.Now().Add(3 * time.Second)
	for len(eng.Gateway().DownDevices()) != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if down := eng.Gateway().DownDevices(); len(down) != 0 {
		t.Fatalf("flapping device never re-admitted: DownDevices = %v", down)
	}
	res, err := eng.ClassifyTenantShed(context.Background(), 0, "", ShedNone)
	if err != nil {
		t.Fatalf("classification after flap settled: %v", err)
	}
	if !res.Present[1] {
		t.Error("recovered device still absent from inference")
	}
}

// TestHealthMonitorSurvivesUnresponsiveProbePeer pins the probe-write
// deadline: a probed peer that accepts its connection but never drains
// it (a wedged process — over the unbuffered in-memory transport every
// write then blocks until read) must be marked down like any silent
// node, and Stop must still return. Without the write deadline the
// first blocked heartbeat wedged the probe loop forever and Stop hung
// on its WaitGroup; the chaos harness (internal/chaos) found the wedge
// via its drain watchdog.
func TestHealthMonitorSurvivesUnresponsiveProbePeer(t *testing.T) {
	model, test := fixture(t)
	tr := transport.NewMem()
	eng, err := NewEngine(model, test, EngineConfig{Gateway: DefaultGatewayConfig(), Logger: quietLogger()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Black-hole listeners: they accept probe connections and never
	// read a byte.
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

	hm, err := eng.Gateway().StartHealthMonitor(context.Background(), tr, addrs, nil, 20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}

	// The blocked writes must count as missed probes: every device goes
	// down even though no probe ever errored out at the peer.
	deadline := time.Now().Add(5 * time.Second)
	for len(eng.Gateway().DownDevices()) < model.Cfg.Devices && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if down := eng.Gateway().DownDevices(); len(down) != model.Cfg.Devices {
		t.Fatalf("DownDevices = %v, want all %d devices", down, model.Cfg.Devices)
	}

	// And the probe loops must stay stoppable while every peer wedges.
	done := make(chan struct{})
	go func() {
		hm.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HealthMonitor.Stop wedged on unresponsive probe peers")
	}
}
