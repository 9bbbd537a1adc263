package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// GatewayConfig controls the local aggregator node.
type GatewayConfig struct {
	// Threshold is the local exit's normalized-entropy threshold T
	// (§III-D; the paper settles on 0.8).
	Threshold float64
	// EdgeThreshold is the edge exit's normalized-entropy threshold,
	// used only when the model has an edge tier. The gateway forwards
	// it with every escalation so the edge node stays policy-free.
	EdgeThreshold float64
	// DeviceTimeout bounds each device round trip; devices that miss it
	// are treated as absent for the sample (graceful degradation, §IV-G).
	// A context with an earlier deadline wins.
	DeviceTimeout time.Duration
	// CloudTimeout bounds each cloud escalation attempt (two-tier
	// hierarchies); a failover retry on another replica gets its own
	// budget, since nothing above the gateway is waiting on a shorter
	// clock.
	CloudTimeout time.Duration
	// EdgeTimeout bounds each gateway↔edge escalation attempt of a
	// three-tier hierarchy, including any cloud relay behind the edge;
	// as with CloudTimeout, a failover retry gets its own budget.
	EdgeTimeout time.Duration
	// HeartbeatInterval paces the gateway's failure detector, which alone
	// marks devices and upstream replicas down and up: a link idle for one
	// interval carries a heartbeat, which nodes echo; two silent intervals
	// mark its device or replica down; its next frame re-admits it.
	// Sessions never mark health. It must exceed the link round trip. The
	// detector always runs; zero means the default, one second.
	HeartbeatInterval time.Duration
}

// DefaultGatewayConfig returns sensible simulation defaults.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		Threshold:         0.8,
		EdgeThreshold:     0.8,
		DeviceTimeout:     2 * time.Second,
		CloudTimeout:      5 * time.Second,
		EdgeTimeout:       7 * time.Second,
		HeartbeatInterval: defaultHeartbeatInterval,
	}
}

// Result is the outcome of one distributed inference session.
type Result struct {
	// SampleID identifies the sample being classified.
	SampleID uint64
	// Class is the predicted class index.
	Class int
	// Exit names the tier that produced the verdict.
	Exit wire.ExitPoint
	// Probs holds the per-class probabilities.
	Probs []float32
	// Entropy is the normalized entropy of the local aggregate.
	Entropy float64
	// Present marks the devices that contributed to the sample.
	Present []bool
	// ConfigVersion is the topology config version the session pinned
	// when it started; the verdict is bit-identical to the staged
	// reference under that version's membership view.
	ConfigVersion uint64
	// ModelVersion is the model version the session pinned when it
	// started: every hop — device sections, edge, cloud — ran these
	// weights, even if a rolling reload flipped the fleet mid-session.
	ModelVersion uint64
	// Latency is the wall-clock duration of the session.
	Latency time.Duration
}

// Gateway is the local aggregator: it fans capture requests out to the
// devices, aggregates their exit summaries, applies the entropy-threshold
// exit rule of the pipeline's first stage, and escalates samples the
// local exit is not confident about to the next tier up — the edge tier
// of a three-tier hierarchy, or the cloud directly in a two-tier one.
// The upstream tier is a replica pool: escalations load-balance across
// its healthy replicas and fail over to another replica when one dies
// mid-session.
//
// Classify is the one entry point and is safe for concurrent use: each
// call opens an independent session over any number of samples, tagged
// with a unique session ID, and the device and upstream links multiplex
// frames from all in-flight sessions. Only the membership view is
// shared, behind a short-lived mutex.
type Gateway struct {
	model    *core.Model
	reg      *modelRegistry
	cfg      GatewayConfig
	pipeline Pipeline
	logger   *slog.Logger
	tr       transport.Transport // retained for AdmitDevice's dials and re-dials

	devices  []*deviceLink
	upstream *ReplicaPool // edge tier for edge-tier models, cloud otherwise

	nextSession atomic.Uint64

	// pool recycles the sessions' per-device exit-vector tensors.
	pool *tensor.Pool

	// Meter accumulates Eq. (1) payload bytes by category
	// ("local-summary", plus "cloud-upload" or "edge-upload" for the
	// device feature maps relayed up the hierarchy's first hop).
	Meter *metrics.CommMeter

	// instr holds the optional observability callbacks installed with
	// SetInstrumentation.
	instr instrumentation

	// stateMu guards the versioned topology state: deviceLink.link /
	// .down, tenants, configVersion and closed.
	stateMu       sync.Mutex
	configVersion uint64
	tenants       map[string]tenantEntry
	closed        bool

	// regPlane is the optional registration-plane listener started by
	// ServeRegistration; it holds each device connection it accepted
	// until the data link the connection became ends.
	regPlane server

	// detector beats the device and upstream replica links (see beat).
	detector *detector
}

// tenantEntry pairs a tenant's raw config with its resolved, validated
// pipeline so classify paths never rebuild it.
type tenantEntry struct {
	cfg      TenantConfig
	pipeline Pipeline
}

type deviceLink struct {
	index int
	// guarded by Gateway.stateMu:
	link *link  // nil while the slot is absent
	addr string // the address link was dialed at; "" if the device dialed in
	down bool   // marked down by the failure detector
}

// NewGateway connects to the device nodes and the next tier up — the
// edge replicas for edge-tier models, the cloud replicas otherwise — and
// returns a ready gateway. upstreamAddrs lists the replicas of that one
// tier; sessions load-balance across them. The context bounds connection
// setup only; per-session deadlines come from the contexts passed to
// Classify.
//
// deviceAddrs may name fewer devices than the model has slots — or use
// empty strings for individual slots — to start with a partial device
// set: the unnamed slots begin absent and are admitted later through
// the registration plane (ServeRegistration) or AdmitDevice. More
// addresses than slots is a hard ErrDeviceSlotMismatch, since the extra
// devices could never appear in the presence mask.
func NewGateway(ctx context.Context, model *core.Model, cfg GatewayConfig, tr transport.Transport, deviceAddrs []string, upstreamAddrs []string, logger *slog.Logger) (*Gateway, error) {
	if logger == nil {
		logger = slog.Default()
	}
	if len(deviceAddrs) > model.Cfg.Devices {
		return nil, fmt.Errorf("cluster: model has %d device slots, got %d addresses: %w", model.Cfg.Devices, len(deviceAddrs), ErrDeviceSlotMismatch)
	}
	if model.Cfg.Devices > wire.MaxDevices {
		// The wire protocol's present-device masks are uint16 bitmasks;
		// a 17th device would silently alias bit 0 and corrupt every
		// escalation header, so such hierarchies are rejected up front.
		return nil, fmt.Errorf("cluster: model has %d devices: %w", model.Cfg.Devices, ErrTooManyDevices)
	}
	// Zero timeouts would otherwise expire instantly; an unset
	// GatewayConfig means "use the defaults", not "always time out".
	def := DefaultGatewayConfig()
	if cfg.DeviceTimeout <= 0 {
		cfg.DeviceTimeout = def.DeviceTimeout
	}
	if cfg.CloudTimeout <= 0 {
		cfg.CloudTimeout = def.CloudTimeout
	}
	if cfg.EdgeTimeout <= 0 {
		cfg.EdgeTimeout = def.EdgeTimeout
	}
	if cfg.HeartbeatInterval < 0 {
		return nil, fmt.Errorf("cluster: heartbeat interval must not be negative, got %v", cfg.HeartbeatInterval)
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = def.HeartbeatInterval
	}
	pipeline := BuildPipeline(model.Cfg, cfg.Threshold, cfg.EdgeThreshold)
	if err := pipeline.Validate(); err != nil {
		return nil, err
	}
	g := &Gateway{
		model:    model,
		reg:      newModelRegistry(model, 1),
		cfg:      cfg,
		pipeline: pipeline,
		logger:   logger.With("node", "gateway"),
		tr:       tr,
		pool:     tensor.NewPool(),
		Meter:    metrics.NewCommMeter(),
		tenants:  make(map[string]tenantEntry),
		regPlane: server{name: "registration plane"},
	}
	// All slots exist from construction; the ones without an address
	// begin absent (nil link) and join later via registration.
	g.devices = make([]*deviceLink, model.Cfg.Devices)
	for i := range g.devices {
		g.devices[i] = &deviceLink{index: i}
	}
	for i, addr := range deviceAddrs {
		if addr == "" {
			continue // explicitly absent slot
		}
		conn, err := tr.Dial(ctx, addr)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("cluster: dial device %d: %w", i, err)
		}
		g.admitConn(i, conn, addr, nil) // an open gateway, no welcome: cannot fail
	}
	g.configVersion = 1 // construction is version 1, whatever the slots hold
	pool, err := newReplicaPool(ctx, g.upstreamExit(), tr, upstreamAddrs, g.logger)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.upstream = pool
	g.detector = startDetector("gateway", cfg.HeartbeatInterval, g.beat)
	return g, nil
}

// beat is the gateway's failure-detector tick: it beats each device and
// upstream replica link (link.beat), so one silence rule marks both down
// and one echo re-admits them. Then, as ReplicaPool.beat does, it re-dials
// each broken device link it had dialed, outside stateMu and within one
// interval; a device that dialed in re-joins by itself.
func (g *Gateway) beat(ctx context.Context, hb *wire.Heartbeat, interval time.Duration, sends *sync.WaitGroup) {
	var lost []deviceLink // copies of the slots to re-dial
	g.stateMu.Lock()
	for _, dl := range g.devices {
		if dl.link == nil {
			continue
		}
		if dl.addr != "" && !g.closed && dl.link.broken() {
			lost = append(lost, *dl)
		}
		dl.link.beat(hb, interval, sends, func(dead bool) bool {
			if dead && !dl.down {
				g.logger.Warn("device marked down", "device", dl.index, "silent_intervals", heartbeatMisses)
				dl.down = true
			}
			return dl.down
		})
	}
	g.stateMu.Unlock()
	g.upstream.beat(ctx, hb, interval, sends)
	for _, dl := range lost {
		dctx, cancel := context.WithTimeout(ctx, interval)
		conn, err := g.tr.Dial(dctx, dl.addr)
		cancel()
		if err != nil {
			continue // still silent, so marked down
		}
		// admitConn leaves a slot that changed meanwhile alone.
		if _, v, err := g.admitConn(dl.index, conn, dl.addr, dl.link); err == nil {
			g.logger.Info("device re-dialed", "slot", dl.index, "addr", dl.addr, "config_version", v)
		}
	}
}

// Upstream exposes the gateway's upstream replica pool for stats
// (replica count, health).
func (g *Gateway) Upstream() *ReplicaPool { return g.upstream }

// Pipeline returns the gateway's exit-stage list, lowest tier first.
func (g *Gateway) Pipeline() Pipeline { return g.pipeline }

// upstreamExit names the tier the gateway escalates to.
func (g *Gateway) upstreamExit() wire.ExitPoint { return g.pipeline[1].Exit }

// upstreamSentinel is the typed error for an unreachable upstream tier.
func (g *Gateway) upstreamSentinel() error {
	if g.upstreamExit() == wire.ExitEdge {
		return ErrEdgeUnavailable
	}
	return ErrCloudUnavailable
}

// upstreamTimeout bounds one escalation round trip.
func (g *Gateway) upstreamTimeout() time.Duration {
	if g.upstreamExit() == wire.ExitEdge {
		return g.cfg.EdgeTimeout
	}
	return g.cfg.CloudTimeout
}

// uploadCategory names the Meter bucket for relayed device features.
func (g *Gateway) uploadCategory() string {
	if g.upstreamExit() == wire.ExitEdge {
		return "edge-upload"
	}
	return "cloud-upload"
}

// WireBytes returns the bytes, protocol framing included, the gateway
// has read from its current device links (up: summaries and feature
// uploads) and written to them (down: capture and feature requests).
func (g *Gateway) WireBytes() (up, down int64) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	for _, dl := range g.devices {
		if dl.link != nil {
			cc := dl.link.conn.(*transport.CountingConn)
			up, down = up+cc.BytesRead(), down+cc.BytesWritten()
		}
	}
	return up, down
}

// newDeviceLink wraps a connection to the device in slot, counting its
// bytes. A goodbye on it vacates the slot unless the link no longer
// holds it (reviveDevice's stale-link rule); closing acknowledges it.
func (g *Gateway) newDeviceLink(slot int, conn net.Conn) *link {
	return newLink(transport.NewCountingConn(conn),
		func(l *link) { g.reviveDevice(slot, l) },
		func(l *link, bye *wire.DeviceGoodbye) {
			if v, ok := g.swapLink(slot, nil, "", l); ok {
				g.logger.Info("device deregistered", "node", bye.NodeID, "slot", slot, "reason", bye.Reason, "config_version", v)
			}
			l.close()
		})
}

// checkDeviceSlot refuses a slot the hierarchy does not have.
func (g *Gateway) checkDeviceSlot(slot int) error {
	if slot < 0 || slot >= len(g.devices) {
		return fmt.Errorf("slot %d of %d slots: %w", slot, len(g.devices), ErrDeviceSlotMismatch)
	}
	return nil
}

// reviveDevice is a device link's revive hook: the first frame on a link
// the failure detector armed re-admits the device. A frame on a link that
// has since been replaced (the slot re-registered or left) is stale and
// must not touch the slot's current occupant.
func (g *Gateway) reviveDevice(device int, l *link) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	dl := g.devices[device]
	if dl.link != l || !dl.down {
		return
	}
	dl.down = false
	g.logger.Info("device recovered", "device", device)
}

// DownDevices returns the indices of devices the failure detector
// currently marks down: their links read nothing for two heartbeat
// intervals and have not answered since.
func (g *Gateway) DownDevices() []int {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	var out []int
	for _, dl := range g.devices {
		if dl.down {
			out = append(out, dl.index)
		}
	}
	return out
}

// UpstreamDown reports whether no replica of the next tier up (edge or
// cloud) can currently serve — every replica is marked down by the
// failure detector or fenced by a rollout. Escalations then fail fast
// with the tier's typed error wrapping ErrNoHealthyReplica instead of
// waiting out the timeout.
func (g *Gateway) UpstreamDown() bool { return g.upstream.Down() }

// Close stops the failure detector and tears down all connections,
// including the registration plane when one is serving.
func (g *Gateway) Close() error {
	g.regPlane.Close()
	g.stateMu.Lock()
	g.closed = true
	for _, dl := range g.devices {
		if dl.link != nil {
			dl.link.close() // the slot keeps it, and WireBytes its count
		}
	}
	g.stateMu.Unlock()
	// Before the pool closes, so no re-dial outlives it.
	g.detector.close()
	if g.upstream != nil {
		g.upstream.close()
	}
	return nil
}
