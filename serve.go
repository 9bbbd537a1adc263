package ddnn

import (
	"context"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// ExitPoint identifies where a sample was classified.
type ExitPoint = wire.ExitPoint

// Exit points in hierarchy order.
const (
	ExitLocal = wire.ExitLocal
	ExitEdge  = wire.ExitEdge
	ExitCloud = wire.ExitCloud
)

// Result is the outcome of one classification session: the predicted
// class, the exit point that produced it, the class probabilities, the
// local-aggregate entropy, device presence and wall-clock latency.
type Result = cluster.Result

// Tensor is the dense float32 tensor type used for uploaded sensor
// views (see Engine.ClassifyUpload).
type Tensor = tensor.Tensor

// NewTensor allocates a zeroed tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Uploaded sensor view dimensions: each device view of a sample is a
// [1, ImageC, ImageH, ImageW] tensor whose values are camera bytes on
// the frame grid, q/256 for an integer q in 0…255 (FrameGridSteps);
// Engine.ClassifyUpload refuses any other value with ErrUploadOffGrid.
const (
	ImageC = dataset.ImageC
	ImageH = dataset.ImageH
	ImageW = dataset.ImageW
	// FrameGridSteps is the frame grid's steps per unit: an uploaded
	// value must be q/FrameGridSteps for an integer q in 0…255.
	FrameGridSteps = dataset.GridSteps
)

// ShedLevel selects how aggressively an overloaded serving system
// degrades answer quality to preserve availability: each level forces
// the exit pipeline to stop one stage earlier, so requests are answered
// by a cheaper exit instead of queueing for the full hierarchy.
type ShedLevel = cluster.ShedLevel

// Shed levels in escalation order.
const (
	// ShedNone runs the configured exit pipeline unchanged.
	ShedNone = cluster.ShedNone
	// ShedPreferEdge caps three-tier hierarchies at the edge exit (the
	// cloud is never consulted); two-tier hierarchies degrade straight to
	// the local exit.
	ShedPreferEdge = cluster.ShedPreferEdge
	// ShedLocalOnly answers every sample at the device-local exit.
	ShedLocalOnly = cluster.ShedLocalOnly
)

// Instrumentation holds optional serving-observability callbacks,
// installed with Engine.Gateway().SetInstrumentation.
type Instrumentation = cluster.Instrumentation

// TopologyConfig is a versioned snapshot of the hierarchy's runtime
// shape — occupied device slots and configured tenants; see
// Engine.Topology.
type TopologyConfig = cluster.TopologyConfig

// TenantConfig selects the exit-threshold policy one tenant's traffic
// runs under; see Engine.SetTenant.
type TenantConfig = cluster.TenantConfig

// Typed serving errors, for errors.Is against Engine results. ErrCanceled
// and ErrDeadlineExceeded also wrap the corresponding context error.
var (
	ErrCanceled          = cluster.ErrCanceled
	ErrDeadlineExceeded  = cluster.ErrDeadlineExceeded
	ErrEngineClosed      = cluster.ErrClosed
	ErrNoSummaries       = cluster.ErrNoSummaries
	ErrCloudUnavailable  = cluster.ErrCloudUnavailable
	ErrEdgeUnavailable   = cluster.ErrEdgeUnavailable
	ErrNoHealthyReplica  = cluster.ErrNoHealthyReplica
	ErrTooManyDevices    = cluster.ErrTooManyDevices
	ErrUploadUnsupported = cluster.ErrUploadUnsupported
	// ErrUploadOffGrid reports an uploaded value that is not a camera
	// byte on the frame grid (see FrameGridSteps).
	ErrUploadOffGrid = cluster.ErrUploadOffGrid
	// ErrDeviceSlotMismatch reports a device-slot reference the model's
	// hierarchy cannot satisfy (too many construction addresses, or an
	// admission/removal naming a slot out of range). Fewer addresses than
	// slots is not an error: the engine starts with a partial device set
	// and admits the rest at runtime.
	ErrDeviceSlotMismatch = cluster.ErrDeviceSlotMismatch
	// ErrModelVersionUnknown reports a model version no registry holds —
	// a rollout or session pinned to a version the fleet never loaded.
	ErrModelVersionUnknown = cluster.ErrModelVersionUnknown
	// ErrDuplicateModelVersion reports a RegisterModel version collision.
	ErrDuplicateModelVersion = cluster.ErrDuplicateModelVersion
	// ErrModelConfigMismatch reports a registered model whose architecture
	// differs from the serving fleet's.
	ErrModelConfigMismatch = cluster.ErrModelConfigMismatch
	// ErrRolloutInProgress reports a RolloutModel call racing another;
	// rollouts are serialized.
	ErrRolloutInProgress = cluster.ErrRolloutInProgress
	// ErrRolloutFailed reports a rollout its canary refused: the version
	// produced a non-finite exit probability on the held-out batch, and
	// the prior version stayed active.
	ErrRolloutFailed = cluster.ErrRolloutFailed
	// ErrRolloutUnsupported reports RegisterModel, RegisterModelBytes or
	// RolloutModel on an engine attached to remote nodes, which hold
	// their own model registries.
	ErrRolloutUnsupported = cluster.ErrRolloutUnsupported
)

// Rollout lifecycle states, as reported by Engine.RolloutState.
const (
	// RolloutIdle means no rollout is running and the last one (if any)
	// completed.
	RolloutIdle = cluster.RolloutIdle
	// RolloutRolling means a rollout is running its canary now.
	RolloutRolling = cluster.RolloutRolling
	// RolloutRolledBack means the last rollout was refused by its canary;
	// the fleet never left the prior version.
	RolloutRolledBack = cluster.RolloutRolledBack
)

// DefaultMaxBatch is a sensible BatchConfig.MaxBatch.
const DefaultMaxBatch = cluster.DefaultMaxBatch

// Engine is the serving entry point of the package: a DDNN cluster behind
// a context-aware, concurrency-bounded API. Every classify call is an
// independent inference session — sessions are multiplexed over the
// device links, load-balanced across the upstream tier's replica pool,
// and proceed in parallel up to the configured concurrency limit. All
// methods are safe for concurrent use.
type Engine = cluster.Engine

// EngineConfig assembles every knob of an Engine. Start from
// DefaultGatewayConfig for Gateway: the zero GatewayConfig has exit
// threshold T = 0, so every sample escalates past the local exit.
type EngineConfig = cluster.EngineConfig

// BatchConfig enables adaptive cross-session micro-batching; see
// EngineConfig.Batch.
type BatchConfig = cluster.BatchConfig

// NewEngine starts a complete in-process DDNN cluster — device nodes,
// gateway, the edge replicas for models built with UseEdge
// (cfg.EdgeReplicas) and the cloud replicas (cfg.CloudReplicas) over
// in-memory links — serving device sensors from the dataset, and returns
// the engine fronting it. Sample IDs are dataset indices.
func NewEngine(m *Model, ds *Dataset, cfg EngineConfig) (*Engine, error) {
	return cluster.NewEngine(m, ds, cfg, transport.NewMem())
}

// Connect attaches an engine to already-running nodes over TCP
// (cmd/ddnn-node): the device nodes plus the replicas of the gateway's
// upstream tier — edge nodes for models built with UseEdge, cloud nodes
// otherwise. deviceAddrs must be
// in device order; it may name fewer devices than the model has slots
// (or leave slots empty with "") — absent slots join later through the
// registration plane (Engine.ServeRegistration). upstreamAddrs lists the
// upstream tier's replicas, and sessions load-balance across them and
// fail over when one dies. The context bounds connection setup.
func Connect(ctx context.Context, m *Model, deviceAddrs []string, upstreamAddrs []string, cfg EngineConfig) (*Engine, error) {
	return cluster.AttachEngine(ctx, m, cfg, transport.TCP{}, deviceAddrs, upstreamAddrs)
}
