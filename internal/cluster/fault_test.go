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
