package cluster

import (
	"context"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// TestCloudReplicaFailoverMidBatch is the availability contract of the
// replicated cloud tier (run with -race in CI): a 2-replica cloud pool
// serves a cloud-bound micro-batched stream, one replica is crashed
// mid-run, and every sample must still be classified with exactly the
// class the staged single-process reference assigns — the failed-over
// escalation re-sends the same bit-packed feature frames to a replica
// holding the same frozen model, so the answer is bit-identical.
//
// "windows" crashes the replica between serial 16-sample calls;
// "in-flight" crashes it from inside one call over the whole test set,
// while up to 8 sessions of 4 samples are in flight.
func TestCloudReplicaFailoverMidBatch(t *testing.T) {
	model, test := fixture(t)
	ref := model.Evaluate(test, nil, 32)
	n := test.Len()
	killAt := n / 2
	for _, tc := range []struct {
		name                      string
		window, batch, concurrent int
		inFlight                  bool
	}{
		{name: "windows", window: 16, batch: 8, concurrent: 4},
		{name: "in-flight", window: n, batch: 4, concurrent: 8, inFlight: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gcfg := DefaultGatewayConfig()
			gcfg.Threshold = -1 // force every sample through the cloud pool
			gcfg.CloudTimeout = 400 * time.Millisecond
			// Sessions picking the crashed replica fail over until the
			// detector marks it down, two intervals after it went silent.
			gcfg.HeartbeatInterval = 100 * time.Millisecond
			eng, err := NewEngine(model, test, EngineConfig{
				Gateway:        gcfg,
				MaxConcurrency: tc.concurrent,
				Batch:          BatchConfig{MaxBatch: tc.batch},
				CloudReplicas:  2,
				Logger:         quietLogger(),
			}, transport.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if got := len(eng.Clouds()); got != 2 {
				t.Fatalf("engine started %d cloud replicas, want 2", got)
			}
			if tc.inFlight {
				// Device 0 capturing sample killAt crashes replica 0
				// while the sessions around it are mid-escalation.
				dev := eng.Devices()[0]
				feed := dev.feed
				dev.feed = func(id uint64) (*tensor.Tensor, error) {
					if id == uint64(killAt) {
						eng.Clouds()[0].SetFailed(true)
					}
					return feed(id)
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for base := 0; base < n; base += tc.window {
				if !tc.inFlight && base <= killAt && killAt < base+tc.window {
					eng.Clouds()[0].SetFailed(true)
				}
				end := min(base+tc.window, n)
				ids := make([]uint64, 0, end-base)
				for id := base; id < end; id++ {
					ids = append(ids, uint64(id))
				}
				results, err := eng.ClassifyBatchTenantShed(ctx, ids, "", ShedNone)
				if err != nil {
					t.Fatalf("window at %d (kill at %d): %v", base, killAt, err)
				}
				for i, res := range results {
					if res == nil {
						t.Fatalf("sample %d: nil result", base+i)
					}
					if res.Exit != wire.ExitCloud {
						t.Errorf("sample %d exit = %v, want cloud", base+i, res.Exit)
					}
					if want := core.Argmax(ref.CloudProbs[base+i]); res.Class != want {
						t.Errorf("sample %d class = %d, want %d (bit-identical failover)", base+i, res.Class, want)
					}
				}
			}
			if !eng.Clouds()[0].Failed() {
				t.Fatal("replica 0 was never crashed")
			}

			// The crashed replica ends up marked down by the detector,
			// traffic or not, with the survivor serving.
			waitFor(5*time.Second, func() bool { return eng.Gateway().Upstream().Healthy() == 1 })
			if got := eng.Gateway().Upstream().Healthy(); got != 1 {
				t.Errorf("healthy replicas = %d after the crash, want 1", got)
			}
			if eng.Gateway().UpstreamDown() {
				t.Error("UpstreamDown() = true with one healthy replica left")
			}
		})
	}
}

// TestEdgeReplicaFailoverMidStream is the same contract one tier down in
// the three-tier hierarchy: two edge replicas (each pooling the cloud),
// one crashed mid-stream, every sample still classified exactly as the
// staged reference dictates.
func TestEdgeReplicaFailoverMidStream(t *testing.T) {
	model, test := edgeFixture(t)
	res := model.Evaluate(test, nil, 32)
	const localT, edgeT = -1, 0.8 // skip local, exit edge or cloud
	pol := branchy.NewPolicy(localT, edgeT, 1)

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = localT
	gcfg.EdgeThreshold = edgeT
	gcfg.EdgeTimeout = 600 * time.Millisecond
	gcfg.HeartbeatInterval = 100 * time.Millisecond // as in the cloud variant
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 4,
		EdgeReplicas:   2,
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := len(eng.Edges()); got != 2 {
		t.Fatalf("engine started %d edge replicas, want 2", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n := test.Len()
	killAt := n / 3
	for i := 0; i < n; i++ {
		if i == killAt {
			eng.Edges()[0].SetFailed(true)
		}
		r, err := eng.ClassifyTenantShed(ctx, uint64(i), "", ShedNone)
		if err != nil {
			t.Fatalf("sample %d (kill at %d): %v", i, killAt, err)
		}
		wantExit, wantClass := stagedExpectation(res, pol, i)
		if r.Exit != wantExit || r.Class != wantClass {
			t.Errorf("sample %d = (%v, %d), want (%v, %d)", i, r.Exit, r.Class, wantExit, wantClass)
		}
	}
}
