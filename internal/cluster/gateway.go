package cluster

import (
	"context"
	"fmt"
	"log/slog"
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
	// MaxFailures marks a device as down after this many consecutive
	// timeouts, so later samples skip it immediately. Without heartbeats,
	// one session per cooldown tries it again and an answer re-admits it;
	// with them, the device's next heartbeat echo does. Zero disables
	// sticky failure detection.
	MaxFailures int
	// HeartbeatInterval runs the gateway's failure detector on its device
	// and upstream replica links: a link idle for one interval carries a
	// heartbeat, which nodes echo; two silent intervals mark its device or
	// replica down; its next frame re-admits it. It must exceed the link
	// round trip. Zero, the default, turns the detector off; down devices
	// and replicas then recover through half-open trial sessions.
	HeartbeatInterval time.Duration
}

// DefaultGatewayConfig returns sensible simulation defaults.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		Threshold:     0.8,
		EdgeThreshold: 0.8,
		DeviceTimeout: 2 * time.Second,
		CloudTimeout:  5 * time.Second,
		EdgeTimeout:   7 * time.Second,
		MaxFailures:   3,
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
// frames from all in-flight sessions. Only the per-device failure
// bookkeeping is shared, behind a short-lived mutex.
type Gateway struct {
	model    *core.Model
	reg      *modelRegistry
	cfg      GatewayConfig
	pipeline Pipeline
	logger   *slog.Logger
	tr       transport.Transport // retained for membership dial-backs

	devices  []*deviceLink
	upstream *ReplicaPool // edge tier for edge-tier models, cloud otherwise

	nextSession atomic.Uint64

	// pool recycles the sessions' per-device exit-vector tensors.
	pool *tensor.Pool

	// Meter accumulates Eq. (1) payload bytes by category
	// ("local-summary", plus "cloud-upload" or "edge-upload" for the
	// device feature maps relayed up the hierarchy's first hop).
	Meter *metrics.CommMeter
	// wireConns counts actual bytes on each device uplink including
	// framing, for comparison against the analytic model. Slot-indexed;
	// nil for absent slots. Guarded by stateMu.
	wireConns []*transport.CountingConn

	// instr holds the optional observability callbacks installed with
	// SetInstrumentation.
	instr instrumentation

	// stateMu guards the versioned topology state: deviceLink.link /
	// .failures / .down, wireConns, tenants, configVersion and closed.
	stateMu       sync.Mutex
	configVersion uint64
	tenants       map[string]tenantEntry
	closed        bool

	// regPlane is the optional registration-plane listener started by
	// ServeRegistration.
	regPlane server

	// stopDetect stops the failure detector, and detectDone closes once it
	// has returned; both are nil while HeartbeatInterval is zero.
	stopDetect context.CancelFunc
	detectDone chan struct{}
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
	link     *link // nil while the slot is absent
	failures int
	down     bool
	// retryAt is when a down device may take its next trial session (the
	// same half-open rule as a replica; see ReplicaPool.startTrial).
	retryAt time.Time
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
	pipeline := BuildPipeline(model.Cfg, cfg.Threshold, cfg.EdgeThreshold)
	if err := pipeline.Validate(); err != nil {
		return nil, err
	}
	g := &Gateway{
		model:         model,
		reg:           newModelRegistry(model, 1),
		cfg:           cfg,
		pipeline:      pipeline,
		logger:        logger.With("node", "gateway"),
		tr:            tr,
		pool:          tensor.NewPool(),
		Meter:         metrics.NewCommMeter(),
		configVersion: 1,
		tenants:       make(map[string]tenantEntry),
		regPlane:      server{name: "registration plane"},
	}
	// All slots exist from construction; the ones without an address
	// begin absent (nil link) and join later via registration.
	g.devices = make([]*deviceLink, model.Cfg.Devices)
	g.wireConns = make([]*transport.CountingConn, model.Cfg.Devices)
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
		cc := transport.NewCountingConn(conn)
		g.wireConns[i] = cc
		g.devices[i].link = newLink(cc, func(l *link) { g.recordSuccess(i, l) })
	}
	pool, err := newReplicaPool(ctx, g.upstreamExit(), tr, upstreamAddrs, cfg.HeartbeatInterval == 0, g.logger)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.upstream = pool
	if cfg.HeartbeatInterval > 0 {
		dctx, cancel := context.WithCancel(context.Background())
		g.stopDetect, g.detectDone = cancel, make(chan struct{})
		go g.detect(dctx, cfg.HeartbeatInterval)
	}
	return g, nil
}

// detect is the gateway's failure detector: every interval it beats each
// device and upstream replica link (link.beat), so one silence rule marks
// both down and one echo re-admits them. A tick ends once its heartbeats
// are written.
func (g *Gateway) detect(ctx context.Context, interval time.Duration) {
	defer close(g.detectDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	hb := &wire.Heartbeat{NodeID: "gateway"}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		hb.Seq++
		var sends sync.WaitGroup
		g.stateMu.Lock()
		for _, dl := range g.devices {
			if dl.link == nil {
				continue
			}
			dl.link.beat(hb, interval, &sends, func(dead bool) bool {
				if dead && !dl.down {
					g.logger.Warn("device marked down", "device", dl.index, "silent_intervals", heartbeatMisses)
					dl.down, dl.failures = true, 0
				}
				return dl.down
			})
		}
		g.stateMu.Unlock()
		g.upstream.beat(ctx, hb, interval, &sends)
		sends.Wait()
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

// WireBytesUp returns the total bytes the gateway has received on all
// device uplinks (the device→gateway direction: summaries and feature
// uploads), including protocol framing.
func (g *Gateway) WireBytesUp() int64 {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	var t int64
	for _, c := range g.wireConns {
		if c != nil {
			t += c.BytesRead() // device→gateway direction
		}
	}
	return t
}

// WireBytesDown returns the total bytes the gateway has written to all
// device links (the gateway→device direction: capture and feature
// requests), including protocol framing.
func (g *Gateway) WireBytesDown() int64 {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	var t int64
	for _, c := range g.wireConns {
		if c != nil {
			t += c.BytesWritten() // gateway→device direction
		}
	}
	return t
}

// recordTimeout counts a consecutive miss and applies sticky marking;
// marking down starts the cooldown before the device's first trial
// session (see snapshotMembers). The session's snapshot link guards
// against membership churn: a timeout observed on a link that has since
// been replaced (the slot re-registered or left) must not count against
// the slot's current occupant.
func (g *Gateway) recordTimeout(device int, l *link) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	dl := g.devices[device]
	if dl.link != l {
		return // stale observation from before a membership change
	}
	dl.failures++
	if g.cfg.MaxFailures > 0 && dl.failures >= g.cfg.MaxFailures && !dl.down {
		g.logger.Warn("device marked down", "device", device, "consecutive_timeouts", dl.failures)
		dl.down = true
		dl.retryAt = time.Now().Add(replicaCooldown)
	}
}

// recordSuccess resets the consecutive-miss counter and re-admits a down
// device that answered (a trial session, one that started before it was
// marked down, or a frame on a link the heartbeat detector armed); stale
// observations from before a membership change are dropped (see
// recordTimeout).
func (g *Gateway) recordSuccess(device int, l *link) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	dl := g.devices[device]
	if dl.link != l {
		return
	}
	dl.failures = 0
	if dl.down {
		dl.down = false
		g.logger.Info("device recovered", "device", device)
	}
}

// DownDevices returns the indices of devices currently marked down by
// sticky failure detection.
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
// cloud) can currently serve — every replica is fenced by the heartbeat
// detector or by in-session failure detection, and none is eligible for
// a trial. Escalations then fail fast with the tier's typed error
// wrapping ErrNoHealthyReplica instead of waiting out the timeout.
func (g *Gateway) UpstreamDown() bool { return g.upstream.Down() }

// Close stops the failure detector and tears down all connections,
// including the registration plane when one is serving.
func (g *Gateway) Close() error {
	g.regPlane.Close()
	g.stateMu.Lock()
	g.closed = true
	var links []*link
	for _, dl := range g.devices {
		if dl.link != nil {
			links = append(links, dl.link)
			dl.link = nil
		}
	}
	g.stateMu.Unlock()
	for _, l := range links {
		l.close()
	}
	if g.detectDone != nil {
		// Before the pool closes, so no re-dial outlives it.
		g.stopDetect()
		<-g.detectDone
	}
	if g.upstream != nil {
		g.upstream.close()
	}
	return nil
}
