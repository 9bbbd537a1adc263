package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// TestPipelineShedExitsMaxEntropySamples pins the shed contract on the
// sample easiest to break: a uniform distribution, whose normalized
// entropy is the maximum, 1. The stage a shed level stops at must answer
// it on both hierarchies, or the sample escalates past the level it was
// granted.
func TestPipelineShedExitsMaxEntropySamples(t *testing.T) {
	third := float32(1) / 3
	uniform := nn.NormalizedEntropy([]float32{third, third, third})
	for _, edge := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.UseEdge = edge
		p := BuildPipeline(cfg, 0.3, 0.3)
		for level, stop := range map[ShedLevel]int{ShedLocalOnly: 0, ShedPreferEdge: len(p) - 2} {
			if th := p.Shed(level)[stop].Threshold; uniform > th {
				t.Errorf("edge=%v %v: stage %d threshold %v lets a uniform sample (entropy %v) escalate", edge, level, stop, th, uniform)
			}
		}
	}
}

// TestUniformLocalDistributionExitsAtThresholdOne: a local threshold of
// exactly 1 always exits, even for the least confident sample. Devices
// whose every summary row is all zeros max-pool to a uniform local
// distribution — its float32 entries round, and an unclamped entropy
// lands a few ulps above 1 — and every sample must still exit locally,
// on both hierarchies.
func TestUniformLocalDistributionExitsAtThresholdOne(t *testing.T) {
	two, _ := fixture(t)
	three, _ := edgeFixture(t)
	for _, model := range []*core.Model{two, three} {
		t.Run(fmt.Sprintf("edge=%v", model.Cfg.UseEdge), func(t *testing.T) {
			tr := transport.NewMem()
			addrs := make([]string, model.Cfg.Devices)
			for d := range addrs {
				addrs[d] = fmt.Sprintf("zero-device-%d", d)
				zeroSummaryPeer(t, tr, addrs[d], d, model.Cfg.Classes)
			}
			// The upstream only ever sees heartbeats: nothing escalates.
			zeroSummaryPeer(t, tr, "upstream", 0, model.Cfg.Classes)
			gcfg := DefaultGatewayConfig()
			gcfg.Threshold, gcfg.EdgeThreshold = 1, 1
			gcfg.CloudTimeout, gcfg.EdgeTimeout = 200*time.Millisecond, 200*time.Millisecond
			gw, err := NewGateway(context.Background(), model, gcfg, tr, addrs, []string{"upstream"}, quietLogger())
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			results, err := gw.Classify(context.Background(), []uint64{0, 1, 2}, "", ShedNone)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range results {
				if res.Exit != wire.ExitLocal || res.Entropy != 1 {
					t.Errorf("sample %d: exit %v at entropy %v, want a local exit at entropy 1", res.SampleID, res.Exit, res.Entropy)
				}
			}
		})
	}
}

// rawPeer serves addr as a raw wire peer: it echoes heartbeats and hands
// every other frame to serve, hanging up on the connection when serve
// says so.
func rawPeer(t *testing.T, tr transport.Transport, addr string, serve func(conn net.Conn, m wire.Message) (hangUp bool)) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() { // ends when either side hangs up
				defer conn.Close()
				for {
					msg, err := wire.Decode(conn)
					if err != nil {
						return
					}
					if hb, ok := msg.(*wire.Heartbeat); ok {
						_, _ = wire.Encode(conn, hb)
					} else if serve(conn, msg) {
						return
					}
				}
			}()
		}
	}()
}

// zeroSummaryPeer serves addr as a raw wire peer that answers every
// capture with all-zero summary rows from device index; it ignores every
// other frame.
func zeroSummaryPeer(t *testing.T, tr transport.Transport, addr string, index, classes int) {
	t.Helper()
	rawPeer(t, tr, addr, func(conn net.Conn, msg wire.Message) bool {
		if m, ok := msg.(*wire.CaptureBatch); ok {
			n := len(m.SampleIDs)
			reply := &wire.SummaryBatch{Session: m.Session, Device: uint16(index), Classes: uint16(classes),
				Count: uint16(n), Present: make([]byte, (n+7)/8), Probs: make([]float32, n*classes)}
			for i := range m.SampleIDs {
				wire.MarkPresent(reply.Present, i)
			}
			_, _ = wire.Encode(conn, reply)
		}
		return false
	})
}
