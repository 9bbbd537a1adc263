package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// TestBatchCollectorMatchesSerial hammers a batching engine with
// concurrent Classify calls and checks every verdict against the
// per-sample baseline: coalescing sessions must never change results.
func TestBatchCollectorMatchesSerial(t *testing.T) {
	model, test := fixture(t)
	base, err := NewEngine(model, test, EngineConfig{
		Gateway: DefaultGatewayConfig(),
		Logger:  quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want := make([]*Result, test.Len())
	for i := range want {
		res, err := base.ClassifyTenantShed(context.Background(), uint64(i), "", ShedNone)
		if err != nil {
			t.Fatalf("baseline sample %d: %v", i, err)
		}
		want[i] = res
	}

	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        DefaultGatewayConfig(),
		MaxConcurrency: 4,
		Batch:          BatchConfig{MaxBatch: 8, MaxLinger: 3 * time.Millisecond},
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*test.Len())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < test.Len(); i++ {
				id := (i + w) % test.Len()
				res, err := eng.ClassifyTenantShed(context.Background(), uint64(id), "", ShedNone)
				if err != nil {
					errs <- fmt.Errorf("worker %d sample %d: %w", w, id, err)
					return
				}
				if res.Class != want[id].Class || res.Exit != want[id].Exit {
					errs <- fmt.Errorf("worker %d sample %d: got class %d exit %v, want %d %v",
						w, id, res.Class, res.Exit, want[id].Class, want[id].Exit)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClassifyBatchFirstErrorKeepsCompletedResults pins ClassifyBatch's
// failure contract at both session sizes: the first session error is
// returned and cancels the sessions not yet started, while every sample
// that did complete — in earlier sessions, and beside the failing sample
// in its own session — keeps its result.
func TestClassifyBatchFirstErrorKeepsCompletedResults(t *testing.T) {
	model, test := fixture(t)
	bad := uint64(test.Len()) + 7 // no device has a frame for it
	ids := []uint64{0, 1, bad, 2, 3, 4}
	for _, tc := range []struct {
		maxBatch int
		filled   []bool // per ids position
	}{
		{0, []bool{true, true, false, false, false, false}}, // sessions {0} {1} {bad} | {2} {3} {4} canceled
		{2, []bool{true, true, false, true, false, false}},  // sessions {0,1} {bad,2} | {3,4} canceled
	} {
		eng, err := NewEngine(model, test, EngineConfig{
			Gateway:        DefaultGatewayConfig(),
			MaxConcurrency: 1, // sessions run in order
			Batch:          BatchConfig{MaxBatch: tc.maxBatch},
			Logger:         quietLogger(),
		}, transport.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.ClassifyBatchTenantShed(context.Background(), ids, "", ShedNone)
		if !errors.Is(err, ErrNoSummaries) {
			t.Errorf("MaxBatch %d: err = %v, want ErrNoSummaries", tc.maxBatch, err)
		}
		for i, want := range tc.filled {
			if got := results[i] != nil; got != want {
				t.Errorf("MaxBatch %d: sample %d filled = %v, want %v", tc.maxBatch, ids[i], got, want)
			}
		}
		eng.Close()
	}
}

// TestBatchCollectorLingerFlushesPartialBatch checks that a lone Classify
// call on an idle batching engine is answered after at most roughly the
// linger bound instead of waiting forever for the batch to fill.
func TestBatchCollectorLingerFlushesPartialBatch(t *testing.T) {
	model, test := fixture(t)
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway: DefaultGatewayConfig(),
		Batch:   BatchConfig{MaxBatch: 64, MaxLinger: 5 * time.Millisecond},
		Logger:  quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := eng.ClassifyTenantShed(ctx, 0, "", ShedNone)
	if err != nil {
		t.Fatalf("lone batched Classify: %v", err)
	}
	if res.SampleID != 0 {
		t.Errorf("got sample %d, want 0", res.SampleID)
	}
}

// TestEngineClassifyCloseRace hammers Classify against Close (run with
// -race in CI): Close must never return while a session is still
// registering — the documented sync.WaitGroup Add-vs-Wait misuse of the
// old atomic-flag handshake — and late calls must fail with ErrClosed,
// not crash or hang.
func TestEngineClassifyCloseRace(t *testing.T) {
	model, test := fixture(t)
	for _, batch := range []int{0, 4} {
		for iter := 0; iter < 6; iter++ {
			eng, err := NewEngine(model, test, EngineConfig{
				Gateway:        DefaultGatewayConfig(),
				MaxConcurrency: 4,
				Batch:          BatchConfig{MaxBatch: batch, MaxLinger: time.Millisecond},
				Logger:         quietLogger(),
			}, transport.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for i := 0; i < 8; i++ {
						_, err := eng.ClassifyTenantShed(context.Background(), uint64((w*8+i)%test.Len()), "", ShedNone)
						if err != nil && !errors.Is(err, ErrClosed) {
							errs <- fmt.Errorf("batch %d worker %d: %w", batch, w, err)
							return
						}
						if errors.Is(err, ErrClosed) {
							return
						}
					}
				}(w)
			}
			close(start)
			// Close while the workers are mid-flight.
			if iter%2 == 0 {
				time.Sleep(time.Duration(iter) * time.Millisecond)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := eng.ClassifyTenantShed(context.Background(), 0, "", ShedNone); !errors.Is(err, ErrClosed) {
				t.Errorf("Classify after Close = %v, want ErrClosed", err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}
	}
}

// TestNewGatewayRejectsTooManyDevices pins the uint16 mask-overflow fix:
// a hierarchy with more devices than wire.MaxDevices must be rejected
// with the typed error instead of silently aliasing mask bits.
func TestNewGatewayRejectsTooManyDevices(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Devices = 17
	cfg.DeviceFilters = 1
	cfg.CloudFilters = 1
	model, err := core.NewModel(cfg)
	if err != nil {
		t.Fatalf("building 17-device model: %v", err)
	}
	addrs := make([]string, cfg.Devices)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("overflow-device-%d", i)
	}
	_, err = NewGateway(context.Background(), model, DefaultGatewayConfig(), transport.NewMem(), addrs, []string{"overflow-cloud"}, quietLogger())
	if !errors.Is(err, ErrTooManyDevices) {
		t.Fatalf("NewGateway with 17 devices: err = %v, want ErrTooManyDevices", err)
	}
}

// TestZeroTimeoutConfigDoesNotExpireInstantly pins exchange's zero-timeout
// rule: a zero-value GatewayConfig (no explicit timeouts) must classify normally
// — previously time.NewTimer(0) made every round trip expire at once.
func TestZeroTimeoutConfigDoesNotExpireInstantly(t *testing.T) {
	model, test := fixture(t)
	cfg := GatewayConfig{Threshold: -1} // force escalation; every timeout field zero
	eng := startEngine(t, model, test, EngineConfig{Gateway: cfg})
	res, err := classifyOne(context.Background(), eng.Gateway(), 0)
	if err != nil {
		t.Fatalf("zero-timeout config: %v", err)
	}
	if res.Exit == 0 {
		t.Error("no exit recorded")
	}
}

// TestWireBytesBothDirections checks that the gateway reports traffic in
// both directions and that they are distinct counters: uplink bytes
// (summaries, uploads) dominate a forced-escalation session, while the
// downlink carries the much smaller request frames.
func TestWireBytesBothDirections(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // force feature uploads so the uplink dwarfs the downlink
	eng := newTwoTier(t, cfg)
	if _, err := classifyOne(context.Background(), eng.Gateway(), 0); err != nil {
		t.Fatal(err)
	}
	up, down := eng.Gateway().WireBytes()
	if up <= 0 || down <= 0 {
		t.Fatalf("WireBytes up=%d down=%d, want both positive", up, down)
	}
	if up <= down {
		t.Errorf("uplink (%d B) should exceed downlink (%d B) when features are uploaded", up, down)
	}
}
