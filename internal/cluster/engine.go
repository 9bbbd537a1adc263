package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// DefaultMaxConcurrency bounds in-flight sessions when EngineConfig does
// not say otherwise.
const DefaultMaxConcurrency = 16

// EngineConfig assembles every knob of a serving engine. Start from
// DefaultGatewayConfig for Gateway: the zero GatewayConfig has exit
// threshold T = 0, so every sample escalates past the local exit.
type EngineConfig struct {
	// Gateway holds the exit threshold, stage timeouts and failure
	// detection settings; start from DefaultGatewayConfig.
	Gateway GatewayConfig
	// MaxConcurrency bounds the number of in-flight sessions; requests
	// beyond it queue on a semaphore (respecting their contexts). Zero
	// means DefaultMaxConcurrency.
	MaxConcurrency int
	// Batch enables adaptive micro-batching: concurrent Classify calls
	// coalesce into one multi-sample session per tier (see BatchConfig).
	// The zero value disables batching.
	Batch BatchConfig
	// EdgeReplicas is the number of edge nodes an in-process engine
	// starts for edge-tier models (NewEngine only; attached engines take
	// explicit address lists). Zero means one. Sessions load-balance
	// across the replicas and fail over when one dies.
	EdgeReplicas int
	// CloudReplicas is the number of cloud nodes an in-process engine
	// starts (NewEngine only). Zero means one.
	CloudReplicas int
	// Edge configures the in-process edge replicas (NewEngine only);
	// nil means DefaultEdgeConfig.
	Edge *EdgeConfig
	// ModelVersion is the version number the engine's starting model is
	// registered under in the fleet-wide model registry. Zero means 1.
	// Later versions arrive via Engine.RegisterModel/RegisterModelBytes
	// and go live via Engine.RolloutModel.
	ModelVersion uint64
	// Logger receives node logs; nil means slog.Default().
	Logger *slog.Logger
}

// Engine is the concurrent serving runtime: a gateway (plus, for
// in-process engines, the device, edge and cloud nodes it talks to)
// behind a semaphore that bounds in-flight sessions. All methods are safe
// for concurrent use.
type Engine struct {
	gw *Gateway

	tr            transport.Transport
	deviceAddrs   []string
	upstreamAddrs []string

	sem chan struct{}
	// maxBatch is the number of samples per session: Batch.MaxBatch
	// clamped to [1, wire.MaxBatch]. Above 1, concurrent single-sample
	// calls coalesce through the collector.
	maxBatch  int
	collector *batchCollector // nil unless maxBatch > 1

	// reg is the fleet's source of truth for loaded model versions and
	// the active pointer; every node's registry mirrors it. canary is the
	// held-out batch rollout canaries replay (nil for attached engines,
	// which cannot roll out).
	reg    *modelRegistry
	canary *dataset.Dataset

	// The in-process nodes (NewEngine); all empty for attached engines.
	// nodeMu serializes RestartEdge/RestartCloud with each other and with
	// Close, and guards the edges/clouds slots they replace — read them
	// through Edges/Clouds. Device nodes never restart.
	nodeMu  sync.Mutex
	devices []*Device
	edges   []*Edge
	clouds  []*Cloud
	// uploads stages ClassifyUpload samples for the in-process devices.
	uploads *uploadStore
	edgeCfg EdgeConfig
	logger  *slog.Logger

	rolloutMu    sync.Mutex   // serializes RolloutModel
	rolloutState atomic.Int32 // rolloutIdle / rolloutRolling / rolloutRolledBack
	tamperMu     sync.Mutex
	tamper       func(tier wire.ExitPoint, replica int) *core.Model

	// mu guards the closed/closing flags AND every wg.Add: a session may
	// only register with the WaitGroup while `closed` is false under mu,
	// and Close sets `closed` under mu before calling wg.Wait, so Wait
	// can never race an Add on a zero counter (the documented WaitGroup
	// misuse the previous atomic-flag handshake allowed).
	mu      sync.Mutex
	closed  bool
	closing bool
	wg      sync.WaitGroup
}

// NewEngine starts a complete in-process cluster over the transport and
// returns a serving engine for it: one device node per sensor, reading
// ds (sample IDs are indices into ds), EngineConfig.CloudReplicas cloud
// nodes, EngineConfig.EdgeReplicas edge nodes for edge-tier models (each
// pooling every cloud replica), and a gateway escalating to the edge
// replicas, or to the cloud replicas without an edge tier. The nodes
// listen on "device-N", "edge-N" and "cloud-N"; to serve over TCP, start
// the nodes yourself and use AttachEngine.
func NewEngine(m *core.Model, ds *dataset.Dataset, cfg EngineConfig, tr transport.Transport) (*Engine, error) {
	e := newEngine(m, cfg, tr)
	e.uploads, e.logger, e.edgeCfg = newUploadStore(), cfg.Logger, DefaultEdgeConfig()
	if cfg.Edge != nil {
		e.edgeCfg = *cfg.Edge
	}
	err := e.startNodes(m, ds, max(cfg.CloudReplicas, 1), max(cfg.EdgeReplicas, 1))
	if err == nil {
		err = e.connect(context.Background(), m, cfg)
	}
	if err != nil {
		e.closeNodes()
		return nil, err
	}
	n := min(ds.Len(), canarySamples)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	e.canary = ds.Subset(idx)
	return e, nil
}

// AttachEngine connects a serving engine to already-running nodes (e.g.
// ddnn-node processes over TCP): the device nodes plus the replicas of
// the gateway's upstream tier — edge nodes for models built with
// UseEdge, cloud nodes otherwise. Sessions load-balance across the
// upstream replicas. The context bounds connection setup.
func AttachEngine(ctx context.Context, m *core.Model, cfg EngineConfig, tr transport.Transport, deviceAddrs []string, upstreamAddrs []string) (*Engine, error) {
	e := newEngine(m, cfg, tr)
	e.deviceAddrs = append([]string(nil), deviceAddrs...)
	e.upstreamAddrs = append([]string(nil), upstreamAddrs...)
	if err := e.connect(ctx, m, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

func newEngine(m *core.Model, cfg EngineConfig, tr transport.Transport) *Engine {
	maxC := cfg.MaxConcurrency
	if maxC <= 0 {
		maxC = DefaultMaxConcurrency
	}
	e := &Engine{
		tr:       tr,
		sem:      make(chan struct{}, maxC),
		maxBatch: min(max(cfg.Batch.MaxBatch, 1), wire.MaxBatch),
		reg:      newModelRegistry(m, cfg.ModelVersion),
	}
	if e.maxBatch > 1 {
		e.collector = newBatchCollector(e, cfg.Batch)
	}
	return e
}

// connect builds the gateway over the engine's device and upstream
// addresses and seeds its registry from the engine's.
func (e *Engine) connect(ctx context.Context, m *core.Model, cfg EngineConfig) error {
	gw, err := NewGateway(ctx, m, cfg.Gateway, e.tr, e.deviceAddrs, e.upstreamAddrs, cfg.Logger)
	if err != nil {
		return err
	}
	gw.reg.adopt(e.reg.snapshot())
	e.gw = gw
	return nil
}

// startNodes starts the in-process nodes: the devices, the cloud replicas
// and, for edge-tier models, the edge replicas, which then are the
// gateway's upstream tier.
func (e *Engine) startNodes(m *core.Model, ds *dataset.Dataset, clouds, edges int) error {
	e.deviceAddrs = nodeAddrs("device", m.Cfg.Devices)
	for d, addr := range e.deviceAddrs {
		dev := NewDevice(m, d, uploadFeed(e.uploads, DatasetFeed(ds, d), d), e.logger)
		e.devices = append(e.devices, dev)
		if err := e.serve(&dev.server, e.reg, addr); err != nil {
			return err
		}
	}
	e.upstreamAddrs = nodeAddrs("cloud", clouds)
	for _, addr := range e.upstreamAddrs {
		c := NewCloud(m, e.logger)
		e.clouds = append(e.clouds, c)
		if err := e.serve(&c.server, e.reg, addr); err != nil {
			return err
		}
	}
	if !m.Cfg.UseEdge {
		return nil
	}
	e.upstreamAddrs = nodeAddrs("edge", edges)
	for _, addr := range e.upstreamAddrs {
		ed, err := e.newEdge(m)
		if err != nil {
			return err
		}
		e.edges = append(e.edges, ed)
		if err := e.serve(&ed.server, e.reg, addr); err != nil {
			return err
		}
	}
	return nil
}

// nodeAddrs are the in-process addresses of a tier's n nodes: "cloud-0",
// "cloud-1", ….
func nodeAddrs(tier string, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("%s-%d", tier, i)
	}
	return addrs
}

// newEdge builds an edge node pooling every cloud replica.
func (e *Engine) newEdge(m *core.Model) (*Edge, error) {
	ed, err := NewEdge(m, e.edgeCfg, e.logger)
	if err != nil {
		return nil, err
	}
	if err := ed.ConnectCloud(context.Background(), e.tr, nodeAddrs("cloud", len(e.clouds))...); err != nil {
		return nil, err
	}
	return ed, nil
}

// serve seeds a node's registry from src — the engine's at construction,
// the gateway's when a restart replaces a node mid-lifecycle, so the
// replacement serves the fleet's current versions and resolves any
// version a live session pinned — and starts the node on addr.
func (e *Engine) serve(n *server, src *modelRegistry, addr string) error {
	n.reg.adopt(src.snapshot())
	return n.Serve(e.tr, addr)
}

// fleet returns every in-process node — devices, then edge and cloud
// replicas in slot order — from one snapshot of the slots, so a
// concurrent restart lands either wholly before or wholly after it.
func (e *Engine) fleet() []*server {
	e.nodeMu.Lock()
	defer e.nodeMu.Unlock()
	nodes := make([]*server, 0, len(e.devices)+len(e.edges)+len(e.clouds))
	for _, d := range e.devices {
		nodes = append(nodes, &d.server)
	}
	for _, ed := range e.edges {
		nodes = append(nodes, &ed.server)
	}
	for _, c := range e.clouds {
		nodes = append(nodes, &c.server)
	}
	return nodes
}

// closeNodes tears every in-process node down.
func (e *Engine) closeNodes() {
	for _, n := range e.fleet() {
		n.Close()
	}
}

// beginSession registers a session with the engine's lifecycle tracking.
// It must be paired with endSession; it fails once Close has begun.
func (e *Engine) beginSession() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.wg.Add(1)
	return nil
}

func (e *Engine) endSession() { e.wg.Done() }

// ClassifyTenantShed runs one inference session, queueing on the
// engine's concurrency semaphore first; the context governs both the
// queue wait and every stage of the session. With micro-batching enabled
// the call instead joins the collector's current batch and shares one
// multi-sample session with other concurrent callers.
//
// The tenant (resolved at admission from the client identity) picks the
// exit thresholds and the shed level tightens them: an overloaded front
// door degrades answer quality (a cheaper exit) instead of availability.
// Unknown tenants — and the empty tenant — run the engine's default
// pipeline; ShedNone runs it unchanged. Requests for different tenants
// or shed levels never share a micro-batch.
func (e *Engine) ClassifyTenantShed(ctx context.Context, sampleID uint64, tenant string, level ShedLevel) (*Result, error) {
	if e.collector != nil {
		return e.collector.classify(ctx, sampleID, tenant, level)
	}
	results, err := e.runSession(ctx, []uint64{sampleID}, tenant, level)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// runSession registers one gateway session with the engine's lifecycle
// tracking and runs it; sessions that start after Close fail with
// ErrClosed.
func (e *Engine) runSession(ctx context.Context, sampleIDs []uint64, tenant string, level ShedLevel) ([]*Result, error) {
	if err := e.beginSession(); err != nil {
		return nil, err
	}
	defer e.endSession()
	return e.runBatch(ctx, sampleIDs, tenant, level)
}

// runBatch runs one gateway session over the samples under the engine's
// concurrency semaphore; it is the only place the engine takes the
// semaphore and calls the gateway. The context governs the semaphore
// wait and every stage of the session. The caller has registered the
// session with beginSession (the collector must, before its flush
// returns; everyone else goes through runSession).
func (e *Engine) runBatch(ctx context.Context, sampleIDs []uint64, tenant string, level ShedLevel) ([]*Result, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctxErr(ctx.Err())
	}
	defer func() { <-e.sem }()
	return e.gw.Classify(ctx, sampleIDs, tenant, level)
}

// ClassifyBatchTenantShed classifies the samples under a tenant's
// pipeline tightened for a shed level (see ClassifyTenantShed) and
// returns results in input order. The IDs are chunked into sessions of
// Batch.MaxBatch samples (one sample each when micro-batching is off)
// that run concurrently, bounded by MaxConcurrency. The first session
// error cancels the remaining sessions and is returned; results for
// sessions that completed before the failure are still filled in (nil
// entries mark samples that did not complete).
func (e *Engine) ClassifyBatchTenantShed(ctx context.Context, sampleIDs []uint64, tenant string, level ShedLevel) ([]*Result, error) {
	results := make([]*Result, len(sampleIDs))
	if len(sampleIDs) == 0 {
		return results, nil
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	size := e.maxBatch
	type chunk struct{ lo, hi int }
	chunks := make(chan chunk)
	// One worker per semaphore slot, not per chunk: huge requests must not
	// allocate a goroutine per session just to park on the semaphore.
	workers := cap(e.sem)
	if max := (len(sampleIDs) + size - 1) / size; workers > max {
		workers = max
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chunks {
				res, err := e.runSession(bctx, sampleIDs[c.lo:c.hi], tenant, level)
				copy(results[c.lo:c.hi], res)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
			}
		}()
	}
	for lo := 0; lo < len(sampleIDs); lo += size {
		hi := lo + size
		if hi > len(sampleIDs) {
			hi = len(sampleIDs)
		}
		chunks <- chunk{lo, hi}
	}
	close(chunks)
	wg.Wait()
	return results, firstErr
}

// Gateway exposes the underlying gateway for stats (Meter, WireBytes,
// DownDevices).
func (e *Engine) Gateway() *Gateway { return e.gw }

// Devices returns the in-process device nodes, in slot order, or nil for
// an attached engine. Simulations use them to inject failures.
func (e *Engine) Devices() []*Device { return e.devices }

// Edges returns the in-process edge replicas, or nil for two-tier models
// and attached engines. The slice is a copy of the current slots:
// RestartEdge replaces a slot's node, so read it again after a restart.
// Simulations use the replicas to inject failures and read the edge→cloud
// hop's communication meter.
func (e *Engine) Edges() []*Edge {
	e.nodeMu.Lock()
	defer e.nodeMu.Unlock()
	return append([]*Edge(nil), e.edges...)
}

// Clouds returns the in-process cloud replicas, or nil for attached
// engines; like Edges, a copy of the current slots.
func (e *Engine) Clouds() []*Cloud {
	e.nodeMu.Lock()
	defer e.nodeMu.Unlock()
	return append([]*Cloud(nil), e.clouds...)
}

// RestartCloud hard-restarts in-process cloud replica i: the old node is
// torn down (its listener and every link into it die, unlike the silent
// failure of SetFailed) and a fresh replica starts on the same address.
// Downstream replica pools reach it again through a session's re-dial or
// their failure detector's, and a replica the detector marked down
// meanwhile is re-admitted by its first echo, exactly as a rebooted host
// would be.
func (e *Engine) RestartCloud(i int) error {
	e.nodeMu.Lock()
	defer e.nodeMu.Unlock()
	if err := e.checkSlot("cloud", i, len(e.clouds)); err != nil {
		return err
	}
	e.clouds[i].Close()
	c := NewCloud(e.gw.model, e.logger)
	if err := e.serve(&c.server, e.gw.reg, nodeAddrs("cloud", len(e.clouds))[i]); err != nil {
		return fmt.Errorf("cluster: restart cloud %d: %w", i, err)
	}
	e.clouds[i] = c
	return nil
}

// RestartEdge hard-restarts in-process edge replica i on its original
// address; see RestartCloud. The replacement is fully wired (cloud pool
// connected) before the old node is torn down, so a cloud replica that
// is unreachable at restart time fails the restart and leaves the old
// node serving. A replacement that cannot listen is closed with its cloud
// links; the slot then holds no serving node until a later restart
// succeeds.
func (e *Engine) RestartEdge(i int) error {
	e.nodeMu.Lock()
	defer e.nodeMu.Unlock()
	if err := e.checkSlot("edge", i, len(e.edges)); err != nil {
		return err
	}
	ed, err := e.newEdge(e.gw.model)
	if err != nil {
		return fmt.Errorf("cluster: restart edge %d: %w", i, err)
	}
	e.edges[i].Close()
	if err := e.serve(&ed.server, e.gw.reg, e.upstreamAddrs[i]); err != nil {
		ed.Close() // its cloud pool is already connected
		return fmt.Errorf("cluster: restart edge %d: %w", i, err)
	}
	e.edges[i] = ed
	return nil
}

// checkSlot refuses a restart of a closed engine or of a slot it does
// not have; the caller holds nodeMu.
func (e *Engine) checkSlot(tier string, i, slots int) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if i < 0 || i >= slots {
		return fmt.Errorf("cluster: %s replica %d out of range [0,%d)", tier, i, slots)
	}
	return nil
}

// AdmitDevice (re-)admits the device in slot into the live topology by
// dialing its known address — the one the engine was built with — and
// returns the resulting config version; see Gateway.AdmitDevice.
func (e *Engine) AdmitDevice(ctx context.Context, slot int) (uint64, error) {
	if slot < 0 || slot >= len(e.deviceAddrs) {
		return 0, fmt.Errorf("cluster: admit device: engine has no address for slot %d: %w", slot, ErrDeviceSlotMismatch)
	}
	return e.gw.AdmitDevice(ctx, slot, e.deviceAddrs[slot])
}

// RemoveDevice deregisters the device in slot from the live topology
// and returns the resulting config version; see Gateway.RemoveDevice.
func (e *Engine) RemoveDevice(slot int) (uint64, error) {
	return e.gw.RemoveDevice(slot)
}

// SetTenant installs or updates a tenant's exit-threshold config; see
// Gateway.SetTenant.
func (e *Engine) SetTenant(name string, tc TenantConfig) (uint64, error) {
	return e.gw.SetTenant(name, tc)
}

// RemoveTenant deletes a tenant's config; see Gateway.RemoveTenant.
func (e *Engine) RemoveTenant(name string) uint64 {
	return e.gw.RemoveTenant(name)
}

// ServeRegistration starts the gateway's registration plane on addr over
// the engine's transport, so devices can join, leave and re-register
// mid-run; see Gateway.ServeRegistration.
func (e *Engine) ServeRegistration(addr string) error {
	return e.gw.ServeRegistration(e.tr, addr)
}

// Topology returns a snapshot of the versioned runtime topology; see
// Gateway.Topology.
func (e *Engine) Topology() TopologyConfig { return e.gw.Topology() }

// Close drains in-flight sessions and tears the engine (and, for
// in-process engines, the whole cluster) down. Samples already queued in
// the micro-batch collector are flushed and complete normally; sessions
// that have not started by then fail with ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return nil
	}
	e.closing = true
	e.mu.Unlock()
	if e.collector != nil {
		// Flush pending callers into a final batch session (registered
		// with the WaitGroup before stop returns) so they get results,
		// not ErrClosed.
		e.collector.stop()
	}
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.wg.Wait()
	e.gw.Close()
	e.closeNodes()
	return nil
}
