package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// The edge fixture trains one small three-tier DDNN once and shares it
// across tests; like the two-tier fixture, these tests exercise protocol
// behaviour, not model quality.
var (
	edgeFixtureOnce  sync.Once
	edgeFixtureModel *core.Model
	edgeFixtureTest  *dataset.Dataset
)

func edgeFixture(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	edgeFixtureOnce.Do(func() {
		dcfg := dataset.DefaultConfig()
		dcfg.Train, dcfg.Test = 120, 40
		train, test := dataset.MustGenerate(dcfg)
		cfg := core.DefaultConfig()
		cfg.UseEdge = true
		cfg.CloudFilters = 8
		m := core.MustNewModel(cfg)
		tc := core.DefaultTrainConfig()
		tc.Epochs = 3
		if _, err := m.Train(train, tc); err != nil {
			panic(err)
		}
		edgeFixtureModel, edgeFixtureTest = m, test
	})
	return edgeFixtureModel, edgeFixtureTest
}

// newThreeTier starts the edge fixture hierarchy; tests drive its
// gateway directly.
func newThreeTier(t *testing.T, cfg GatewayConfig) *Engine {
	t.Helper()
	model, test := edgeFixture(t)
	return startEngine(t, model, test, EngineConfig{Gateway: cfg})
}

func TestEdgeSimStartsThreeTierTopology(t *testing.T) {
	eng := newThreeTier(t, DefaultGatewayConfig())
	if len(eng.Edges()) != 1 {
		t.Fatalf("edge-tier engine has %d edge nodes, want 1", len(eng.Edges()))
	}
	if addrs := eng.upstreamAddrs; len(addrs) != 1 || addrs[0] != "edge-0" {
		t.Errorf("upstream addrs = %v, want [edge-0]", addrs)
	}
	p := eng.Gateway().Pipeline()
	want := []wire.ExitPoint{wire.ExitLocal, wire.ExitEdge, wire.ExitCloud}
	if len(p) != len(want) {
		t.Fatalf("pipeline has %d stages, want %d", len(p), len(want))
	}
	for i := range want {
		if p[i].Exit != want[i] {
			t.Fatalf("pipeline stage %d exits at %v, want %v", i, p[i].Exit, want[i])
		}
	}
}

// TestEdgeTierStagesAreReachable pins each tier of the pipeline with
// degenerate thresholds: every sample must exit exactly where the
// thresholds dictate.
func TestEdgeTierStagesAreReachable(t *testing.T) {
	cases := []struct {
		name         string
		localT, edgT float64
		want         wire.ExitPoint
	}{
		{"all local", 1, 1, wire.ExitLocal},
		{"all edge", -1, 1, wire.ExitEdge},
		{"all cloud", -1, -1, wire.ExitCloud},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultGatewayConfig()
			cfg.Threshold = tc.localT
			cfg.EdgeThreshold = tc.edgT
			eng := newThreeTier(t, cfg)
			for id := 0; id < 5; id++ {
				res, err := classifyOne(context.Background(), eng.Gateway(), uint64(id))
				if err != nil {
					t.Fatalf("sample %d: %v", id, err)
				}
				if res.Exit != tc.want {
					t.Errorf("sample %d exit = %v, want %v", id, res.Exit, tc.want)
				}
				if res.Class < 0 || res.Class >= dataset.NumClasses {
					t.Errorf("sample %d class %d out of range", id, res.Class)
				}
			}
		})
	}
}

func TestEdgeTierMetersBothHops(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1
	cfg.EdgeThreshold = -1 // force the full three-stage escalation
	eng := newThreeTier(t, cfg)
	model, _ := edgeFixture(t)

	if _, err := classifyOne(context.Background(), eng.Gateway(), 0); err != nil {
		t.Fatal(err)
	}
	devices := int64(model.Cfg.Devices)
	wantSummary := devices * int64(wire.SummaryPayloadBytes(model.Cfg.Classes))
	if got := eng.Gateway().Meter.Get("local-summary"); got != wantSummary {
		t.Errorf("local-summary bytes = %d, want %d", got, wantSummary)
	}
	featBytes := int64(model.Cfg.DeviceFilters*model.Cfg.FeatureSize()) / 8
	if got := eng.Gateway().Meter.Get("edge-upload"); got != devices*featBytes {
		t.Errorf("edge-upload bytes = %d, want %d (= n·f·o/8 on the first hop)", got, devices*featBytes)
	}
	if got := eng.Gateway().Meter.Get("cloud-upload"); got != 0 {
		t.Errorf("gateway cloud-upload bytes = %d, want 0 (the edge owns the second hop)", got)
	}
	edgeBytes := int64(model.Cfg.EdgeFilters*(model.Cfg.FeatureH()/2)*(model.Cfg.FeatureW()/2)) / 8
	if got := eng.Edges()[0].Meter.Get("cloud-upload"); got != edgeBytes {
		t.Errorf("edge→cloud bytes = %d, want %d (bit-packed edge features)", got, edgeBytes)
	}
}

func TestEdgeExitSendsNothingToCloud(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1
	cfg.EdgeThreshold = 1 // every escalated sample answered at the edge
	eng := newThreeTier(t, cfg)
	for id := 0; id < 5; id++ {
		if _, err := classifyOne(context.Background(), eng.Gateway(), uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Edges()[0].Meter.Get("cloud-upload"); got != 0 {
		t.Errorf("edge→cloud bytes = %d, want 0 when the edge answers everything", got)
	}
}

func TestEdgeDownSurfacesTypedError(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // force escalation
	cfg.EdgeTimeout = 300 * time.Millisecond
	eng := newThreeTier(t, cfg)
	eng.Edges()[0].SetFailed(true)

	start := time.Now()
	_, err := classifyOne(context.Background(), eng.Gateway(), 0)
	if !errors.Is(err, ErrEdgeUnavailable) {
		t.Errorf("err = %v, want ErrEdgeUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("edge-down classification took %v; must fail fast", elapsed)
	}

	// Confident samples never touch the edge and keep working.
	cfg2 := DefaultGatewayConfig()
	cfg2.Threshold = 1
	model, test := edgeFixture(t)
	eng2 := startEngine(t, model, test, EngineConfig{Gateway: cfg2})
	eng2.Edges()[0].SetFailed(true)
	res, err := classifyOne(context.Background(), eng2.Gateway(), 0)
	if err != nil {
		t.Fatalf("local-exit classification failed with edge down: %v", err)
	}
	if res.Exit != wire.ExitLocal {
		t.Errorf("exit = %v, want local", res.Exit)
	}
}

// TestEdgeAnswersWhenCloudDown exercises the masked-degradation path:
// with the WAN tier gone, escalated samples are answered at the edge
// exit instead of failing, so the system keeps serving at reduced
// accuracy.
func TestEdgeAnswersWhenCloudDown(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1
	cfg.EdgeThreshold = -1 // every sample wants the cloud
	eng := newThreeTier(t, cfg)
	eng.Clouds()[0].Close()

	start := time.Now()
	res, err := classifyOne(context.Background(), eng.Gateway(), 0)
	if err != nil {
		t.Fatalf("classification failed with the cloud down: %v", err)
	}
	if res.Exit != wire.ExitEdge {
		t.Errorf("exit = %v, want edge fallback with the cloud down", res.Exit)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cloud-down fallback took %v; must degrade fast", elapsed)
	}
}

// TestAttachEngineToEdgeTierOverTCP runs the full three-tier topology as
// it would deploy: every node on its own TCP listener (as ddnn-node
// runs them) with the engine attached from outside.
func TestAttachEngineToEdgeTierOverTCP(t *testing.T) {
	model, test := edgeFixture(t)
	tr := transport.TCP{}

	addrs := make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, DatasetFeed(test, d), quietLogger())
		if err := dev.Serve(tr, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		addrs[d] = dev.Addr()
	}
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := NewEdge(model, DefaultEdgeConfig(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.ConnectCloud(context.Background(), tr, cloud.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := edge.Serve(tr, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1
	gcfg.EdgeThreshold = -1 // drive the full device→edge→cloud path
	eng, err := AttachEngine(context.Background(), model, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 4,
		Logger:         quietLogger(),
	}, tr, addrs, []string{edge.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	results, err := eng.ClassifyBatchTenantShed(context.Background(), []uint64{0, 1, 2, 3, 4}, "", ShedNone)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Exit != wire.ExitCloud {
			t.Errorf("sample %d exit = %v, want cloud over TCP three-tier", i, res.Exit)
		}
	}
	// The attached engine exposes no in-process edge node.
	if len(eng.Edges()) != 0 {
		t.Error("attached engine must not expose an in-process edge")
	}
}

// TestTwoGatewaysShareOneEdge pins the session-ID namespacing of the
// edge's shared cloud link: two gateways allocate overlapping session
// IDs (both start at 1), escalate different samples through one edge
// node concurrently, and every verdict must come back for the sample
// that was asked — the edge re-keys its upstream sessions so downstream
// IDs never collide on the cloud link.
func TestTwoGatewaysShareOneEdge(t *testing.T) {
	model, test := edgeFixture(t)
	tr := transport.NewMem()

	addrs := make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, DatasetFeed(test, d), quietLogger())
		addrs[d] = fmt.Sprintf("2gw-device-%d", d)
		if err := dev.Serve(tr, addrs[d]); err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
	}
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "2gw-cloud"); err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := NewEdge(model, DefaultEdgeConfig(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.ConnectCloud(context.Background(), tr, "2gw-cloud"); err != nil {
		t.Fatal(err)
	}
	if err := edge.Serve(tr, "2gw-edge"); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1
	gcfg.EdgeThreshold = -1 // all sessions traverse the shared cloud link
	var gws [2]*Gateway
	for i := range gws {
		gw, err := NewGateway(context.Background(), model, gcfg, tr, addrs, []string{"2gw-edge"}, quietLogger())
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		gws[i] = gw
	}

	// Baseline from one gateway, serially.
	const samples = 8
	want := make([]*Result, samples)
	for id := 0; id < samples; id++ {
		res, err := classifyOne(context.Background(), gws[0], uint64(id))
		if err != nil {
			t.Fatalf("baseline sample %d: %v", id, err)
		}
		want[id] = res
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*samples)
	for g, gw := range gws {
		wg.Add(1)
		go func(g int, gw *Gateway) {
			defer wg.Done()
			// Opposite orders maximize same-session-ID overlap in flight.
			for i := 0; i < samples; i++ {
				id := i
				if g == 1 {
					id = samples - 1 - i
				}
				res, err := classifyOne(context.Background(), gw, uint64(id))
				if err != nil {
					errs <- fmt.Errorf("gateway %d sample %d: %w", g, id, err)
					return
				}
				if res.SampleID != uint64(id) {
					errs <- fmt.Errorf("gateway %d asked for sample %d, got %d", g, id, res.SampleID)
					return
				}
				if res.Class != want[id].Class || res.Exit != want[id].Exit {
					errs <- fmt.Errorf("gateway %d sample %d: class/exit %d/%v, want %d/%v",
						g, id, res.Class, res.Exit, want[id].Class, want[id].Exit)
					return
				}
			}
		}(g, gw)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCloudRejectsMismatchedTierMessages(t *testing.T) {
	// The hierarchy is part of the protocol contract: a two-tier cloud
	// must reject EdgeFeatureBatch and an edge-tier cloud must reject
	// CloudClassifyBatch. And no node accepts the eight retired
	// single-sample frames any more: each answers a session-tagged 400
	// and keeps serving the connection.
	twoTier, test := fixture(t)
	threeTier, _ := edgeFixture(t)
	type listener struct {
		name  string
		serve func(tr transport.Transport, addr string) (stop func(), err error)
	}
	cloudOf := func(m *core.Model) func(transport.Transport, string) (func(), error) {
		return func(tr transport.Transport, addr string) (func(), error) {
			c := NewCloud(m, quietLogger())
			return func() { c.Close() }, c.Serve(tr, addr)
		}
	}
	twoTierCloud := listener{"two-tier cloud", cloudOf(twoTier)}
	edgeTierCloud := listener{"edge-tier cloud", cloudOf(threeTier)}
	edge := listener{"edge", func(tr transport.Transport, addr string) (func(), error) {
		e, err := NewEdge(threeTier, DefaultEdgeConfig(), quietLogger())
		if err != nil {
			return nil, err
		}
		return func() { e.Close() }, e.Serve(tr, addr)
	}}
	device := listener{"device", func(tr transport.Transport, addr string) (func(), error) {
		d := NewDevice(twoTier, 0, DatasetFeed(test, 0), quietLogger())
		return func() { d.Close() }, d.Serve(tr, addr)
	}}
	type rejection struct {
		name string
		on   listener
		msg  wire.Message
	}
	const sid = 77
	cases := []rejection{
		{"two-tier rejects EdgeFeatureBatch", twoTierCloud, &wire.EdgeFeatureBatch{Session: sid, F: 8, H: 8, W: 8, SampleIDs: []uint64{1}, Bits: make([]byte, 64)}},
		{"edge-tier rejects CloudClassifyBatch", edgeTierCloud, &wire.CloudClassifyBatch{Session: sid, Devices: 6, SampleIDs: []uint64{1}, Masks: []uint16{1}}},
		{"edge-tier rejects bad shape", edgeTierCloud, &wire.EdgeFeatureBatch{Session: sid, F: 1, H: 1, W: 1, SampleIDs: []uint64{1}, Bits: make([]byte, 1)}},
	}
	for _, on := range []listener{device, edge, twoTierCloud, edgeTierCloud} {
		for _, msg := range []wire.Message{
			&wire.CaptureRequest{Session: sid, SampleID: 1},
			&wire.LocalSummary{Session: sid, SampleID: 1, Probs: []float32{1, 0, 0}},
			&wire.FeatureRequest{Session: sid, SampleID: 1},
			&wire.FeatureUpload{Session: sid, SampleID: 1, F: 4, H: 16, W: 16, Bits: make([]byte, 128)},
			&wire.CloudClassify{Session: sid, SampleID: 1, Devices: 6, Mask: 1},
			&wire.EdgeClassify{Session: sid, SampleID: 1, Devices: 6, Mask: 1, Thresholds: []float64{0.8}},
			&wire.EdgeFeature{Session: sid, SampleID: 1, F: 8, H: 8, W: 8, Bits: make([]byte, 64)},
			&wire.ClassifyResult{Session: sid, SampleID: 1, Probs: []float32{1, 0, 0}},
		} {
			cases = append(cases, rejection{fmt.Sprintf("%s refuses retired %v", on.name, msg.MsgType()), on, msg})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewMem()
			stop, err := tc.on.serve(tr, "node")
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			conn, err := tr.Dial(context.Background(), "node")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := wire.Encode(conn, tc.msg); err != nil {
				t.Fatal(err)
			}
			msg, err := wire.Decode(conn)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := msg.(*wire.Error); !ok || e.Code != 400 || e.Session != sid {
				t.Errorf("node replied %+v, want Error 400 on session %d", msg, sid)
			}
			// The refusal is per frame: the connection keeps serving.
			if _, err := wire.Encode(conn, &wire.Heartbeat{NodeID: "probe", Seq: 9}); err != nil {
				t.Fatal(err)
			}
			if msg, err = wire.Decode(conn); err != nil {
				t.Fatal(err)
			}
			if hb, ok := msg.(*wire.Heartbeat); !ok || hb.Seq != 9 {
				t.Errorf("after the refusal the node replied %+v, want the heartbeat echoed", msg)
			}
		})
	}
}

// TestOpenSessionTableIsBounded drives an edge and a cloud replica with a
// raw-wire peer that sends classify headers and never the feature frames:
// past maxOpenSessions the header is refused with a session-tagged 429,
// the sessions already open still complete, and closing the connection
// returns every pinned tensor to the node's pool.
func TestOpenSessionTableIsBounded(t *testing.T) {
	twoTier, _ := fixture(t)
	threeTier, _ := edgeFixture(t)
	cloud := NewCloud(twoTier, quietLogger())
	edge, err := NewEdge(threeTier, DefaultEdgeConfig(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []struct {
		name   string
		model  *core.Model
		serve  func(transport.Transport, string) error
		close  func() error
		pool   *tensor.Pool
		header func(session uint64) wire.Message
	}{
		{"cloud", twoTier, cloud.Serve, cloud.Close, cloud.pool, func(s uint64) wire.Message {
			return &wire.CloudClassifyBatch{Session: s, Devices: 6, SampleIDs: []uint64{1}, Masks: []uint16{1}}
		}},
		{"edge", threeTier, edge.Serve, edge.Close, edge.pool, func(s uint64) wire.Message {
			// Threshold 1: the edge answers the completed session itself.
			return &wire.EdgeClassifyBatch{Session: s, Devices: 6, SampleIDs: []uint64{1}, Masks: []uint16{1}, Thresholds: []float64{1}}
		}},
	} {
		t.Run(node.name, func(t *testing.T) {
			tr := transport.NewMem()
			if err := node.serve(tr, "node"); err != nil {
				t.Fatal(err)
			}
			defer node.close()
			conn, err := tr.Dial(context.Background(), "node")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for s := uint64(1); s <= maxOpenSessions+1; s++ {
				if _, err := wire.Encode(conn, node.header(s)); err != nil {
					t.Fatal(err)
				}
			}
			msg, err := wire.Decode(conn)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := msg.(*wire.Error); !ok || e.Code != 429 || e.Session != maxOpenSessions+1 {
				t.Fatalf("header %d past the cap got %+v, want Error 429 on its session", maxOpenSessions+1, msg)
			}
			// An open session is unaffected: its frame completes it.
			cfg := node.model.Cfg
			fb := &wire.FeatureBatch{Session: 1, Device: 0, Count: 1,
				F: uint16(cfg.DeviceFilters), H: uint16(cfg.FeatureH()), W: uint16(cfg.FeatureW()),
				Bits: make([]byte, (cfg.DeviceFilters*cfg.FeatureH()*cfg.FeatureW()+7)/8)}
			if _, err := wire.Encode(conn, fb); err != nil {
				t.Fatal(err)
			}
			if msg, err = wire.Decode(conn); err != nil {
				t.Fatal(err)
			}
			if rb, ok := msg.(*wire.ResultBatch); !ok || rb.Session != 1 || len(rb.Verdicts) != 1 {
				t.Fatalf("completed session got %+v, want its ResultBatch", msg)
			}
			// A rejected frame releases its session; so does closing the
			// connection, for the rest.
			fb.Session, fb.Device = 2, 3 // device 3 is outside session 2's mask
			if _, err := wire.Encode(conn, fb); err != nil {
				t.Fatal(err)
			}
			if msg, err = wire.Decode(conn); err != nil {
				t.Fatal(err)
			}
			if e, ok := msg.(*wire.Error); !ok || e.Code != 400 || e.Session != 2 {
				t.Fatalf("bad frame got %+v, want Error 400 on session 2", msg)
			}
			conn.Close()
			node.close()
			// The pool keeps a bounded free list, so count past what the two
			// settled sessions alone returned.
			featSize := cfg.DeviceFilters * cfg.FeatureH() * cfg.FeatureW()
			if got, settled := node.pool.Retained()[featSize], 2*cfg.Devices; got <= settled {
				t.Errorf("pool holds %d session feature tensors after the connection closed, want more than the %d of the settled sessions", got, settled)
			}
		})
	}
}
