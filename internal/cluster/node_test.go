package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// TestDrain drives Drain on an edge and a cloud node through a raw-wire
// peer that completes one session and does not read the reply yet. Over
// the unbuffered in-memory transport the reply write then blocks, so the
// session stays in flight for as long as the peer likes: Drain must wait
// for it, refuse new dials meanwhile and deliver the ResultBatch; with an
// expired context it must return the typed deadline error and still
// close the node.
func TestDrain(t *testing.T) {
	twoTier, _ := fixture(t)
	threeTier, _ := edgeFixture(t)
	for _, tc := range []struct {
		name   string
		model  *core.Model
		node   func(t *testing.T) *server
		header wire.Message
	}{
		{"cloud", twoTier, func(*testing.T) *server { return &NewCloud(twoTier, quietLogger()).server },
			&wire.CloudClassifyBatch{Session: 1, Devices: uint16(twoTier.Cfg.Devices), SampleIDs: []uint64{1}, Masks: []uint16{1}}},
		{"edge", threeTier, func(t *testing.T) *server {
			e, err := NewEdge(threeTier, DefaultEdgeConfig(), quietLogger())
			if err != nil {
				t.Fatal(err)
			}
			return &e.server
		}, // threshold 1: the edge answers the session itself
			&wire.EdgeClassifyBatch{Session: 1, Devices: uint16(threeTier.Cfg.Devices), SampleIDs: []uint64{1}, Masks: []uint16{1}, Thresholds: []float64{1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// inFlight serves a fresh node and leaves one complete session
			// blocked on its reply.
			inFlight := func() (*server, *transport.Mem, net.Conn) {
				t.Helper()
				n := tc.node(t)
				tr := transport.NewMem()
				if err := n.Serve(tr, "node"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				conn, err := tr.Dial(context.Background(), "node")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				cfg := tc.model.Cfg
				for _, m := range []wire.Message{tc.header, &wire.FeatureBatch{Session: 1, Device: 0, Count: 1,
					F: uint16(cfg.DeviceFilters), H: uint16(cfg.FeatureH()), W: uint16(cfg.FeatureW()),
					Bits: make([]byte, (cfg.DeviceFilters*cfg.FeatureH()*cfg.FeatureW()+7)/8)}} {
					if _, err := wire.Encode(conn, m); err != nil {
						t.Fatal(err)
					}
				}
				for stop := time.Now().Add(5 * time.Second); n.active.Load() != 1; time.Sleep(time.Millisecond) {
					if time.Now().After(stop) {
						t.Fatal("the session never went in flight")
					}
				}
				return n, tr, conn
			}

			n, tr, conn := inFlight()
			drained := make(chan error, 1)
			go func() { drained <- n.Drain(context.Background()) }()
			for stop := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				c, err := tr.Dial(context.Background(), "node")
				if err != nil {
					break
				}
				c.Close()
				if time.Now().After(stop) {
					t.Fatal("the node still accepts dials while draining")
				}
			}
			select {
			case err := <-drained:
				t.Fatalf("Drain returned %v with a session in flight", err)
			case <-time.After(20 * time.Millisecond):
			}
			msg, err := wire.Decode(conn)
			if err != nil {
				t.Fatal(err)
			}
			if rb, ok := msg.(*wire.ResultBatch); !ok || rb.Session != 1 || len(rb.Verdicts) != 1 {
				t.Fatalf("in-flight session got %+v while draining, want its ResultBatch", msg)
			}
			if err := <-drained; err != nil {
				t.Fatalf("Drain = %v, want nil once the session answered", err)
			}

			n, tr, conn = inFlight()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if err := n.Drain(ctx); !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Drain past its deadline = %v, want ErrDeadlineExceeded wrapping context.DeadlineExceeded", err)
			}
			if !n.isClosed() {
				t.Error("node not closed after an expired drain")
			}
			if _, err := wire.Decode(conn); err == nil {
				t.Error("the peer's connection survived the expired drain")
			}
			if _, err := tr.Dial(context.Background(), "node"); err == nil {
				t.Error("the closed node still accepts dials")
			}
		})
	}
}
