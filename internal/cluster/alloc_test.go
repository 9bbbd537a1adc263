package cluster

import (
	"context"
	"testing"

	"github.com/ddnn/ddnn-go/internal/transport"
)

// TestOneSampleSessionAllocations pins what the serving ledger reports as
// allocs_per_class for unbatched traffic: a one-sample session through
// Engine.ClassifyTenantShed on a two-tier in-memory cluster — every
// node's share included, since they all run in this process — may not
// allocate more than 131 times per local exit and 261 per cloud exit
// (122 and 242 measured, plus a small margin).
func TestOneSampleSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random, so counts are not stable")
	}
	model, test := fixture(t)
	for _, tc := range []struct {
		name      string
		threshold float64
		max       float64
	}{
		{"local exit", 1, 131},
		{"cloud exit", -1, 261},
	} {
		gcfg := DefaultGatewayConfig()
		gcfg.Threshold = tc.threshold
		eng, err := NewEngine(model, test, EngineConfig{Gateway: gcfg, Logger: quietLogger()}, transport.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		id := uint64(0)
		classify := func() {
			if _, err := eng.ClassifyTenantShed(context.Background(), id%uint64(test.Len()), "", ShedNone); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for i := 0; i < 50; i++ {
			classify() // fill the nodes' tensor pools
		}
		if got := testing.AllocsPerRun(300, classify); got > tc.max {
			t.Errorf("%s: %.0f allocations per one-sample session, want <= %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.0f allocations per one-sample session", tc.name, got)
		}
		eng.Close()
	}
}
