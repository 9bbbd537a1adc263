package cluster

import (
	"context"
	"testing"

	"github.com/ddnn/ddnn-go/internal/poison"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// sessionAllocs reports the allocations of one classify call on a
// two-tier in-memory cluster at the given local-exit threshold — every
// node's share included, since they all run in this process — measured
// after enough calls to fill the nodes' tensor pools and free lists and
// the devices' feature caches (local exits never fetch their features,
// so each device retains maxRetainedFeatures captures before the first
// eviction recycles one). testing.AllocsPerRun runs at GOMAXPROCS 1, so
// the worker bound is raised to 4 for the measurement: a serving block
// or batch call that forks per call is counted as it would be on a
// multi-core host.
func sessionAllocs(t *testing.T, threshold float64, batch int, classify func(eng *Engine, ids []uint64)) float64 {
	t.Helper()
	if raceEnabled || poison.On {
		t.Skip("the race detector and poisoning both drop released objects, so counts are not stable")
	}
	model, test := fixture(t)
	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = threshold
	eng, err := NewEngine(model, test, EngineConfig{Gateway: gcfg, Batch: BatchConfig{MaxBatch: batch}, Logger: quietLogger()}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer tensor.SetMaxWorkers(0)
	tensor.SetMaxWorkers(4)
	ids := make([]uint64, batch)
	next := 0
	call := func() {
		for i := range ids {
			ids[i] = uint64(next % test.Len())
			next++
		}
		classify(eng, ids)
	}
	for i := 0; i < maxRetainedFeatures+50; i++ {
		call()
	}
	return testing.AllocsPerRun(300, call)
}

// TestOneSampleSessionAllocations pins what the serving ledger reports as
// allocs_per_class for unbatched traffic: a one-sample session through
// Engine.ClassifyTenantShed may not allocate more than 6 times per local
// or cloud exit (4 measured: the caller's Result, its probabilities and
// presence flags, and the results slice; plus a small margin).
func TestOneSampleSessionAllocations(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold float64
		max       float64
	}{
		{"local exit", 1, 6},
		{"cloud exit", -1, 6},
	} {
		got := sessionAllocs(t, tc.threshold, 1, func(eng *Engine, ids []uint64) {
			if _, err := eng.ClassifyTenantShed(context.Background(), ids[0], "", ShedNone); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per one-sample session, want <= %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.0f allocations per one-sample session", tc.name, got)
		}
	}
}

// TestBatchSessionAllocations pins the same for the ledger's batched
// traffic: one 32-sample session through Engine.ClassifyBatchTenantShed
// may not allocate more than 6 times per local or cloud exit (4
// measured, as for one sample: the session runs on the caller's
// goroutine and no serving forward forks, so a batch costs the caller's
// results and nothing per sample).
func TestBatchSessionAllocations(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold float64
		max       float64
	}{
		{"local exit", 1, 6},
		{"cloud exit", -1, 6},
	} {
		got := sessionAllocs(t, tc.threshold, 32, func(eng *Engine, ids []uint64) {
			if _, err := eng.ClassifyBatchTenantShed(context.Background(), ids, "", ShedNone); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per 32-sample session, want <= %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.0f allocations per 32-sample session", tc.name, got)
		}
	}
}
