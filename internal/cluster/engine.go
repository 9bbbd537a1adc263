package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

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
// in-process engines, the device and cloud nodes it talks to) behind a
// semaphore that bounds in-flight sessions. All methods are safe for
// concurrent use.
type Engine struct {
	gw  *Gateway
	sim *Sim // nil when attached to remote nodes

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

// NewEngine starts a complete in-process cluster — device nodes, the
// edge replicas for edge-tier models, the cloud replicas and a gateway
// over the transport — and returns a serving engine for it. Replica
// counts come from EngineConfig.EdgeReplicas/CloudReplicas. Sample IDs
// are indices into ds.
func NewEngine(m *core.Model, ds *dataset.Dataset, cfg EngineConfig, tr transport.Transport) (*Engine, error) {
	topo := Topology{EdgeReplicas: cfg.EdgeReplicas, CloudReplicas: cfg.CloudReplicas, Edge: cfg.Edge}
	sim, err := NewReplicatedSim(m, ds, cfg.Gateway, topo, tr, cfg.Logger)
	if err != nil {
		return nil, err
	}
	e := newEngine(sim.Gateway, cfg)
	e.sim = sim
	e.tr = tr
	e.deviceAddrs = sim.DeviceAddrs()
	e.upstreamAddrs = sim.UpstreamAddrs()
	base := cfg.ModelVersion
	if base == 0 {
		base = 1
	}
	e.reg = newModelRegistry(m, base)
	if base != 1 {
		sim.setModelVersion(base)
	}
	n := ds.Len()
	if n > canarySamples {
		n = canarySamples
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	e.canary = ds.Subset(idx)
	return e, nil
}

// AttachEngine connects a serving engine to already-running nodes (e.g.
// over TCP): the device nodes plus the replicas of the gateway's
// upstream tier — edge nodes (cmd/ddnn-edge) for models built with
// UseEdge, cloud nodes otherwise. Sessions load-balance across the
// upstream replicas. The context bounds connection setup.
func AttachEngine(ctx context.Context, m *core.Model, cfg EngineConfig, tr transport.Transport, deviceAddrs []string, upstreamAddrs []string) (*Engine, error) {
	gw, err := NewGateway(ctx, m, cfg.Gateway, tr, deviceAddrs, upstreamAddrs, cfg.Logger)
	if err != nil {
		return nil, err
	}
	e := newEngine(gw, cfg)
	e.tr = tr
	e.deviceAddrs = append([]string(nil), deviceAddrs...)
	e.upstreamAddrs = append([]string(nil), upstreamAddrs...)
	base := cfg.ModelVersion
	if base == 0 {
		base = 1
	}
	e.reg = newModelRegistry(m, base)
	gw.reg = newModelRegistry(m, base)
	return e, nil
}

func newEngine(gw *Gateway, cfg EngineConfig) *Engine {
	maxC := cfg.MaxConcurrency
	if maxC <= 0 {
		maxC = DefaultMaxConcurrency
	}
	e := &Engine{gw: gw, sem: make(chan struct{}, maxC), maxBatch: cfg.Batch.MaxBatch}
	if e.maxBatch < 1 {
		e.maxBatch = 1
	}
	if e.maxBatch > wire.MaxBatch {
		e.maxBatch = wire.MaxBatch
	}
	if e.maxBatch > 1 {
		e.collector = newBatchCollector(e, cfg.Batch)
	}
	return e
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

// Gateway exposes the underlying gateway for stats (Meter, WireBytesUp,
// DownDevices).
func (e *Engine) Gateway() *Gateway { return e.gw }

// Devices returns the in-process device nodes, or nil for an attached
// engine. Simulations use it to inject failures.
func (e *Engine) Devices() []*Device {
	if e.sim == nil {
		return nil
	}
	return e.sim.Devices
}

// Edge returns the first in-process edge replica, or nil for two-tier
// models and attached engines. Simulations use it to inject failures and
// read the edge→cloud hop's communication meter.
func (e *Engine) Edge() *Edge {
	if e.sim == nil {
		return nil
	}
	return e.sim.Edge()
}

// Edges returns the in-process edge replicas, or nil for two-tier models
// and attached engines. Simulations use them to inject replica failures.
func (e *Engine) Edges() []*Edge {
	if e.sim == nil {
		return nil
	}
	return e.sim.Edges
}

// Clouds returns the in-process cloud replicas, or nil for attached
// engines. Simulations use them to inject replica failures.
func (e *Engine) Clouds() []*Cloud {
	if e.sim == nil {
		return nil
	}
	return e.sim.Clouds
}

// EdgeReplica returns in-process edge replica i through the Sim's
// restart-safe accessor, or nil for attached engines; see
// Sim.EdgeReplica.
func (e *Engine) EdgeReplica(i int) *Edge {
	if e.sim == nil {
		return nil
	}
	return e.sim.EdgeReplica(i)
}

// CloudReplica returns in-process cloud replica i through the Sim's
// restart-safe accessor, or nil for attached engines; see
// Sim.CloudReplica.
func (e *Engine) CloudReplica(i int) *Cloud {
	if e.sim == nil {
		return nil
	}
	return e.sim.CloudReplica(i)
}

// RestartEdgeReplica hard-restarts in-process edge replica i; see
// Sim.RestartEdge. Attached engines cannot restart their remote nodes.
func (e *Engine) RestartEdgeReplica(i int) error {
	if e.sim == nil {
		return fmt.Errorf("cluster: attached engine cannot restart replicas")
	}
	return e.sim.RestartEdge(i)
}

// RestartCloudReplica hard-restarts in-process cloud replica i; see
// Sim.RestartCloud.
func (e *Engine) RestartCloudReplica(i int) error {
	if e.sim == nil {
		return fmt.Errorf("cluster: attached engine cannot restart replicas")
	}
	return e.sim.RestartCloud(i)
}

// AdmitDevice (re-)admits the device in slot into the live topology by
// dialing its known address — the one the engine was built with — and
// returns the resulting config version; see Gateway.AdmitDevice.
func (e *Engine) AdmitDevice(ctx context.Context, slot int) (uint64, error) {
	if e.tr == nil || slot < 0 || slot >= len(e.deviceAddrs) {
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
	if e.tr == nil {
		return fmt.Errorf("cluster: engine has no transport to serve registration")
	}
	return e.gw.ServeRegistration(e.tr, addr)
}

// ConfigVersion returns the current topology config version; see
// Gateway.ConfigVersion.
func (e *Engine) ConfigVersion() uint64 { return e.gw.ConfigVersion() }

// Topology returns a snapshot of the versioned runtime topology; see
// Gateway.Topology.
func (e *Engine) Topology() TopologyConfig { return e.gw.Topology() }

// StartHealthMonitor begins heartbeat probing of the engine's devices
// and every upstream replica over its transport; see
// Gateway.StartHealthMonitor.
func (e *Engine) StartHealthMonitor(ctx context.Context, interval time.Duration, misses int) (*HealthMonitor, error) {
	if e.tr == nil || len(e.deviceAddrs) == 0 {
		return nil, fmt.Errorf("cluster: engine has no device addresses to probe")
	}
	return e.gw.StartHealthMonitor(ctx, e.tr, e.deviceAddrs, e.upstreamAddrs, interval, misses)
}

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
	if e.sim != nil {
		return e.sim.Close()
	}
	return e.gw.Close()
}
